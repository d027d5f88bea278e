"""The golden-model interpreter.

This executes the *software* semantics of the language — C's sequential
semantics plus cooperative concurrency for ``par`` blocks, processes, and
rendezvous channels.  Every synthesis flow is validated against it: for any
program, the hardware produced by a flow must compute the same outputs the
interpreter does.

Concurrency model
-----------------
Tasks (the main function, each ``process`` function, and each branch of a
``par``) are Python generators that yield *events*: channel sends/receives,
clock ticks, and spawns.  A central scheduler advances tasks round-robin and
pairs rendezvous partners.  Because semantic analysis rejects write-write
races between ``par`` branches, any fair interleaving yields the same final
state; the scheduler's round-robin order is simply one such interleaving.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, NamedTuple, Optional, Sequence, Tuple, Union

from ..lang import ast_nodes as ast
from ..lang.errors import InterpError
from ..lang.semantic import SemanticInfo
from ..lang.symtab import Symbol, SymbolKind
from ..lang.types import (
    ArrayType,
    BoolType,
    ChannelType,
    IntType,
    PointerType,
    Type,
    VoidType,
)
from .machine import eval_binary, eval_unary, wrap

# ---------------------------------------------------------------------------
# Runtime values and storage
# ---------------------------------------------------------------------------


class Box:
    """A storage location: one slot for scalars, ``size`` slots for arrays.

    Boxes give pointers something stable to refer to: a pointer value is a
    (box, offset) pair, so aliasing works exactly as in C.
    """

    __slots__ = ("values", "element_type", "name")

    def __init__(self, element_type: Type, size: int = 1, name: str = ""):
        self.element_type = element_type
        self.values = [0] * size
        self.name = name

    def read(self, offset: int = 0) -> int:
        if not 0 <= offset < len(self.values):
            raise InterpError(
                f"out-of-bounds access to {self.name or 'storage'}"
                f" (index {offset}, size {len(self.values)})"
            )
        return self.values[offset]

    def write(self, value: int, offset: int = 0) -> None:
        if not 0 <= offset < len(self.values):
            raise InterpError(
                f"out-of-bounds store to {self.name or 'storage'}"
                f" (index {offset}, size {len(self.values)})"
            )
        self.values[offset] = wrap(value, self.element_type)


@dataclass(frozen=True)
class Pointer:
    """A runtime pointer value: a box plus an element offset."""

    box: Box
    offset: int = 0

    def add(self, delta: int) -> "Pointer":
        return Pointer(self.box, self.offset + delta)


Value = Union[int, Pointer, Box, "RuntimeChannel"]


class RuntimeChannel:
    """A rendezvous channel's runtime identity and logging."""

    __slots__ = ("name", "element_type", "log")

    def __init__(self, name: str, element_type: Type):
        self.name = name
        self.element_type = element_type
        self.log: List[int] = []


# ---------------------------------------------------------------------------
# Scheduler events and control-flow signals
# ---------------------------------------------------------------------------


@dataclass
class SendEvent:
    channel: RuntimeChannel
    value: int


@dataclass
class RecvEvent:
    channel: RuntimeChannel


@dataclass
class TickEvent:
    cycles: int = 1


@dataclass
class SpawnEvent:
    generators: List[Generator]


Event = Union[SendEvent, RecvEvent, TickEvent, SpawnEvent]


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _Return(Exception):
    def __init__(self, value: Optional[int]):
        self.value = value


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


def _by_name(fields) -> Dict[str, object]:
    """Name -> value, a sequence as a list whichever form it came in."""
    return {name: list(v) if isinstance(v, (list, tuple)) else v
            for name, v in fields}


class Observable(NamedTuple):
    """What a run shows outside the design, the one thing a flow's run
    and the golden model's are compared on: the return value and the
    final globals and channel logs, sorted by name.  A cell stores its
    ``canonical_observable`` list form; ``Observable(*stored)`` reads
    that back."""

    value: Optional[int]
    globals: Tuple[Tuple[str, object], ...] = ()
    channels: Tuple[Tuple[str, Tuple[int, ...]], ...] = ()

    @classmethod
    def of(cls, value, globals: Dict[str, object],
           channel_log: Dict[str, List[int]]) -> "Observable":
        """The observable of a run's value, globals and channel logs."""
        return cls(value, tuple(sorted(
            (k, tuple(v) if isinstance(v, list) else v)
            for k, v in globals.items()
        )), tuple(sorted((k, tuple(v)) for k, v in channel_log.items())))

    def diff(self, other: Sequence) -> Optional[Tuple[str, str]]:
        """The first field in which ``other`` (an observable in either
        form) differs, checking the value, then each global by name, then
        each channel: ``(kind, text)``, where the kind is ``value``,
        ``global``, ``global-absent`` (one side lacks it) or ``channel``
        and the text names the field and shows this side, then
        ``other``'s.  None when they agree."""
        other = Observable(*other)
        if self.value != other.value:
            return "value", f"value {self.value} vs {other.value}"
        for kind, mine, theirs in (("global", self.globals, other.globals),
                                   ("channel", self.channels, other.channels)):
            mine, theirs = _by_name(mine), _by_name(theirs)
            for name in sorted(mine.keys() | theirs.keys()):
                a, b = mine.get(name, "absent"), theirs.get(name, "absent")
                if a != b:
                    text = f"{kind} {name} {a} vs {b}"
                    if kind == "global" and "absent" in (a, b):
                        kind = "global-absent"
                    return kind, text
        return None


@dataclass
class ExecutionResult:
    """What running a program observably produced."""

    value: Optional[int]
    globals: Dict[str, Union[int, List[int]]] = field(default_factory=dict)
    channel_log: Dict[str, List[int]] = field(default_factory=dict)
    steps: int = 0

    def observable(self) -> Observable:
        return Observable.of(self.value, self.globals, self.channel_log)


# ---------------------------------------------------------------------------
# The interpreter proper
# ---------------------------------------------------------------------------


class Interpreter:
    """Executes a type-checked program.

    Parameters
    ----------
    program, info:
        Output of :func:`repro.lang.parse`.
    max_steps:
        Statement budget; exceeding it raises :class:`InterpError` so that
        accidentally non-terminating workloads fail fast instead of hanging
        the test suite.
    """

    def __init__(self, program: ast.Program, info: SemanticInfo, max_steps: int = 2_000_000):
        self.program = program
        self.info = info
        self.max_steps = max_steps
        self.steps = 0
        self.globals: Dict[Symbol, Box] = {}
        self.channels: Dict[Symbol, RuntimeChannel] = {}
        self._init_globals()

    # -- storage ----------------------------------------------------------

    def _init_globals(self) -> None:
        for decl in self.program.globals:
            symbol: Symbol = decl.symbol  # type: ignore[attr-defined]
            self.globals[symbol] = self._make_box(symbol.type, symbol.name)
            init = self.info.global_inits.get(symbol.name)
            box = self.globals[symbol]
            if init is None:
                continue
            if isinstance(init, list):
                for i, v in enumerate(init):
                    box.write(v, i)
            else:
                box.write(init)
        for chan in self.program.channels:
            symbol = chan.symbol  # type: ignore[attr-defined]
            self.channels[symbol] = RuntimeChannel(symbol.name, chan.element_type)

    @staticmethod
    def _make_box(var_type: Type, name: str) -> Box:
        if isinstance(var_type, ArrayType):
            if isinstance(var_type.element, ArrayType):
                raise InterpError(
                    f"multi-dimensional array {name!r} must be flattened first"
                )
            return Box(var_type.element, var_type.size, name)
        return Box(var_type, 1, name)

    # -- program execution -------------------------------------------------

    def run(self, function: str = "main", args: Sequence[Value] = ()) -> ExecutionResult:
        """Run ``function`` (concurrently with all ``process`` functions)
        and return the observable results."""
        main_fn = self.program.function(function)
        root = self._call_task(main_fn, list(args))
        tasks: List[_Task] = [_Task(root, name=function)]
        for proc in self.program.processes:
            if proc.name != function:
                tasks.append(_Task(self._call_task(proc, []), name=proc.name))
        value = _Scheduler(tasks).run()
        return ExecutionResult(
            value=value,
            globals=self._snapshot_globals(),
            channel_log={c.name: list(c.log) for c in self.channels.values()},
            steps=self.steps,
        )

    def _snapshot_globals(self) -> Dict[str, Union[int, List[int]]]:
        result: Dict[str, Union[int, List[int]]] = {}
        for symbol, box in self.globals.items():
            if isinstance(symbol.type, ArrayType):
                result[symbol.name] = list(box.values)
            else:
                result[symbol.name] = box.read()
        return result

    def _call_task(self, fn: ast.FunctionDef, args: List[Value]) -> Generator:
        """A generator that runs one function invocation to completion and
        returns its return value."""

        def task() -> Generator:
            env = self._bind_params(fn, args)
            try:
                yield from self._exec_block(fn.body, env)
            except _Return as ret:
                # C converts the return expression to the declared return
                # type; the RTL side types the return register the same way,
                # so skipping this wrap makes e.g. ``int f()`` returning a
                # uint-typed expression diverge from every flow.
                if isinstance(ret.value, int) and isinstance(
                    fn.return_type, (IntType, BoolType)
                ):
                    return wrap(ret.value, fn.return_type)
                return ret.value
            return None

        return task()

    def _bind_params(self, fn: ast.FunctionDef, args: List[Value]) -> Dict[Symbol, Value]:
        if len(args) != len(fn.params):
            raise InterpError(
                f"{fn.name}() expects {len(fn.params)} arguments, got {len(args)}"
            )
        env: Dict[Symbol, Value] = {}
        for param, arg in zip(fn.params, args):
            symbol: Symbol = param.symbol  # type: ignore[attr-defined]
            if isinstance(symbol.type, ArrayType):
                if isinstance(arg, (list, tuple)):
                    box = self._make_box(symbol.type, symbol.name)
                    for i, v in enumerate(arg):
                        box.write(v, i)
                    arg = box
                if not isinstance(arg, Box):
                    raise InterpError(
                        f"array parameter {symbol.name!r} needs an array argument"
                    )
                env[symbol] = arg
            elif isinstance(symbol.type, ChannelType):
                if not isinstance(arg, RuntimeChannel):
                    raise InterpError(
                        f"channel parameter {symbol.name!r} needs a channel argument"
                    )
                env[symbol] = arg
            elif isinstance(symbol.type, PointerType):
                if not isinstance(arg, Pointer):
                    raise InterpError(
                        f"pointer parameter {symbol.name!r} needs a pointer argument"
                    )
                env[symbol] = arg
            else:
                if not isinstance(arg, int):
                    raise InterpError(
                        f"scalar parameter {symbol.name!r} needs an integer argument"
                    )
                box = Box(symbol.type, 1, symbol.name)
                box.write(arg)
                env[symbol] = box
        return env

    # -- statements ---------------------------------------------------------

    def _budget(self) -> None:
        self.steps += 1
        if self.steps > self.max_steps:
            raise InterpError(f"step budget of {self.max_steps} exceeded")

    def _exec_block(self, block: ast.Block, env: Dict[Symbol, Value]) -> Generator:
        for stmt in block.statements:
            yield from self._exec_stmt(stmt, env)

    def _exec_stmt(self, stmt: ast.Stmt, env: Dict[Symbol, Value]) -> Generator:
        self._budget()
        if isinstance(stmt, ast.Block):
            yield from self._exec_block(stmt, env)
        elif isinstance(stmt, ast.VarDecl):
            symbol: Symbol = stmt.symbol  # type: ignore[attr-defined]
            if isinstance(symbol.type, PointerType):
                # Pointer variables hold Pointer values directly (unboxed);
                # the language has no pointer-to-pointer types.
                if stmt.init is not None:
                    value = yield from self._eval(stmt.init, env)
                    if not isinstance(value, Pointer):
                        raise InterpError(
                            f"pointer {symbol.name!r} must be initialized"
                            " with a pointer"
                        )
                    env[symbol] = value
                else:
                    env[symbol] = Pointer(Box(symbol.type, 0, "<null>"), 0)
                return
            box = self._make_box(symbol.type, symbol.name)
            env[symbol] = box
            if stmt.init is not None:
                value = yield from self._eval(stmt.init, env)
                box.write(self._as_scalar(value, stmt.init))
            elif stmt.array_init is not None:
                for i, expr in enumerate(stmt.array_init):
                    value = yield from self._eval(expr, env)
                    box.write(self._as_scalar(value, expr), i)
        elif isinstance(stmt, ast.Assign):
            value = yield from self._eval(stmt.value, env)
            if isinstance(value, Pointer):
                self._store_pointer(stmt.target, value, env)
            else:
                yield from self._store(
                    stmt.target, self._as_scalar(value, stmt.value), env
                )
        elif isinstance(stmt, ast.ExprStmt):
            yield from self._eval(stmt.expr, env)
        elif isinstance(stmt, ast.If):
            cond = yield from self._eval(stmt.cond, env)
            if self._as_scalar(cond, stmt.cond):
                yield from self._exec_stmt(stmt.then, env)
            elif stmt.otherwise is not None:
                yield from self._exec_stmt(stmt.otherwise, env)
        elif isinstance(stmt, ast.While):
            while True:
                cond = yield from self._eval(stmt.cond, env)
                if not self._as_scalar(cond, stmt.cond):
                    break
                try:
                    yield from self._exec_stmt(stmt.body, env)
                except _Break:
                    break
                except _Continue:
                    continue
        elif isinstance(stmt, ast.DoWhile):
            while True:
                try:
                    yield from self._exec_stmt(stmt.body, env)
                except _Break:
                    break
                except _Continue:
                    pass
                cond = yield from self._eval(stmt.cond, env)
                if not self._as_scalar(cond, stmt.cond):
                    break
        elif isinstance(stmt, ast.For):
            if stmt.init is not None:
                yield from self._exec_stmt(stmt.init, env)
            while True:
                if stmt.cond is not None:
                    cond = yield from self._eval(stmt.cond, env)
                    if not self._as_scalar(cond, stmt.cond):
                        break
                try:
                    yield from self._exec_stmt(stmt.body, env)
                except _Break:
                    break
                except _Continue:
                    pass
                if stmt.step is not None:
                    yield from self._exec_stmt(stmt.step, env)
        elif isinstance(stmt, ast.Return):
            if stmt.value is None:
                raise _Return(None)
            value = yield from self._eval(stmt.value, env)
            raise _Return(self._as_scalar(value, stmt.value))
        elif isinstance(stmt, ast.Break):
            raise _Break()
        elif isinstance(stmt, ast.Continue):
            raise _Continue()
        elif isinstance(stmt, ast.Par):
            branches = [
                self._branch_task(branch, env) for branch in stmt.branches
            ]
            yield SpawnEvent(branches)
        elif isinstance(stmt, ast.Seq):
            yield from self._exec_block(stmt.body, env)
        elif isinstance(stmt, ast.Wait):
            yield TickEvent(1)
        elif isinstance(stmt, ast.Delay):
            if stmt.cycles > 0:
                yield TickEvent(stmt.cycles)
        elif isinstance(stmt, ast.Within):
            # Timing constraints do not change functional semantics.
            yield from self._exec_block(stmt.body, env)
        elif isinstance(stmt, ast.Send):
            channel = self._channel_of(stmt.symbol, env)  # type: ignore[attr-defined]
            value = yield from self._eval(stmt.value, env)
            scalar = wrap(self._as_scalar(value, stmt.value), channel.element_type)
            yield SendEvent(channel, scalar)
        else:
            raise InterpError(f"cannot execute {type(stmt).__name__}")

    def _branch_task(self, branch: ast.Stmt, env: Dict[Symbol, Value]) -> Generator:
        def task() -> Generator:
            # Branches share the enclosing environment: reads and writes to
            # enclosing variables behave like C, and semantic analysis has
            # already rejected write-write races.
            yield from self._exec_stmt(branch, env)
            return None

        return task()

    def _channel_of(self, symbol: Symbol, env: Dict[Symbol, Value]) -> RuntimeChannel:
        if symbol in self.channels:
            return self.channels[symbol]
        bound = env.get(symbol)
        if isinstance(bound, RuntimeChannel):
            return bound
        raise InterpError(f"channel {symbol.name!r} is not bound")

    # -- expressions --------------------------------------------------------

    @staticmethod
    def _as_scalar(value: Value, expr: ast.Expr) -> int:
        if isinstance(value, int):
            return value
        if isinstance(value, Pointer):
            raise InterpError(
                f"pointer used where an integer is required at {expr.location}"
            )
        raise InterpError(
            f"aggregate used where a scalar is required at {expr.location}"
        )

    def _lookup(self, symbol: Symbol, env: Dict[Symbol, Value]) -> Value:
        if symbol in env:
            return env[symbol]
        if symbol in self.globals:
            return self.globals[symbol]
        if symbol in self.channels:
            return self.channels[symbol]
        raise InterpError(f"unbound variable {symbol.name!r}")

    def _eval(self, expr: ast.Expr, env: Dict[Symbol, Value]) -> Generator:
        if isinstance(expr, ast.IntLiteral):
            return expr.value
        if isinstance(expr, ast.BoolLiteral):
            return int(expr.value)
        if isinstance(expr, ast.Identifier):
            symbol: Symbol = expr.symbol  # type: ignore[attr-defined]
            value = self._lookup(symbol, env)
            if isinstance(value, Box) and not isinstance(symbol.type, ArrayType):
                return value.read()
            return value  # arrays, channels, pointers pass through
        if isinstance(expr, ast.UnaryOp):
            if expr.op == "&":
                return (yield from self._address_of(expr.operand, env))
            operand = yield from self._eval(expr.operand, env)
            if expr.op == "*":
                if not isinstance(operand, Pointer):
                    raise InterpError("dereference of a non-pointer value")
                return operand.box.read(operand.offset)
            assert expr.type is not None
            return eval_unary(expr.op, self._as_scalar(operand, expr.operand), expr.type)
        if isinstance(expr, ast.BinaryOp):
            # Short-circuit evaluation, as in C.
            if expr.op == "&&":
                left = yield from self._eval(expr.left, env)
                if not self._as_scalar(left, expr.left):
                    return 0
                right = yield from self._eval(expr.right, env)
                return int(bool(self._as_scalar(right, expr.right)))
            if expr.op == "||":
                left = yield from self._eval(expr.left, env)
                if self._as_scalar(left, expr.left):
                    return 1
                right = yield from self._eval(expr.right, env)
                return int(bool(self._as_scalar(right, expr.right)))
            left = yield from self._eval(expr.left, env)
            right = yield from self._eval(expr.right, env)
            if isinstance(left, Pointer) and isinstance(right, int):
                if expr.op == "+":
                    return left.add(right)
                if expr.op == "-":
                    return left.add(-right)
                raise InterpError(f"invalid pointer operation {expr.op!r}")
            if isinstance(right, Pointer) and isinstance(left, int) and expr.op == "+":
                return right.add(left)
            if isinstance(left, Pointer) and isinstance(right, Pointer):
                if left.box is not right.box:
                    raise InterpError("comparing pointers into different objects")
                left, right = left.offset, right.offset
            assert expr.type is not None
            return eval_binary(
                expr.op,
                self._as_scalar(left, expr.left),
                self._as_scalar(right, expr.right),
                expr.type,
            )
        if isinstance(expr, ast.Conditional):
            cond = yield from self._eval(expr.cond, env)
            if self._as_scalar(cond, expr.cond):
                value = yield from self._eval(expr.then, env)
                arm = expr.then
            else:
                value = yield from self._eval(expr.otherwise, env)
                arm = expr.otherwise
            assert expr.type is not None
            return wrap(self._as_scalar(value, arm), expr.type)
        if isinstance(expr, ast.ArrayIndex):
            base = yield from self._eval(expr.base, env)
            index = yield from self._eval(expr.index, env)
            index = self._as_scalar(index, expr.index)
            if isinstance(base, Box):
                return base.read(index)
            if isinstance(base, Pointer):
                return base.box.read(base.offset + index)
            raise InterpError("indexing a non-array value")
        if isinstance(expr, ast.Call):
            fn = self.program.function(expr.callee)
            args: List[Value] = []
            for arg in expr.args:
                value = yield from self._eval(arg, env)
                args.append(value)
            result = yield from self._call_task(fn, args)
            if result is None and not isinstance(fn.return_type, VoidType):
                raise InterpError(
                    f"{fn.name}() fell off the end without returning a value"
                )
            return result
        if isinstance(expr, ast.Receive):
            channel = self._channel_of(expr.symbol, env)  # type: ignore[attr-defined]
            value = yield RecvEvent(channel)
            return value
        raise InterpError(f"cannot evaluate {type(expr).__name__}")

    def _address_of(self, expr: ast.Expr, env: Dict[Symbol, Value]) -> Generator:
        if isinstance(expr, ast.Identifier):
            symbol: Symbol = expr.symbol  # type: ignore[attr-defined]
            value = self._lookup(symbol, env)
            if isinstance(value, Box):
                return Pointer(value, 0)
            raise InterpError(f"cannot take the address of {symbol.name!r}")
        if isinstance(expr, ast.ArrayIndex):
            base = yield from self._eval(expr.base, env)
            index = yield from self._eval(expr.index, env)
            index = self._as_scalar(index, expr.index)
            if isinstance(base, Box):
                return Pointer(base, index)
            if isinstance(base, Pointer):
                return base.add(index)
        if isinstance(expr, ast.UnaryOp) and expr.op == "*":
            value = yield from self._eval(expr.operand, env)
            if isinstance(value, Pointer):
                return value
        raise InterpError("cannot take the address of this expression")

    def _store(self, target: ast.Expr, value: int, env: Dict[Symbol, Value]) -> Generator:
        if isinstance(target, ast.Identifier):
            symbol: Symbol = target.symbol  # type: ignore[attr-defined]
            slot = self._lookup(symbol, env)
            if isinstance(slot, Box):
                if isinstance(symbol.type, PointerType):
                    raise InterpError(
                        f"pointer variable {symbol.name!r} holds a pointer,"
                        " not an integer"
                    )
                slot.write(value)
                return
            raise InterpError(f"cannot assign to {symbol.name!r}")
        if isinstance(target, ast.ArrayIndex):
            base = yield from self._eval(target.base, env)
            index = yield from self._eval(target.index, env)
            index = self._as_scalar(index, target.index)
            if isinstance(base, Box):
                base.write(value, index)
                return
            if isinstance(base, Pointer):
                base.box.write(value, base.offset + index)
                return
            raise InterpError("indexed store into a non-array value")
        if isinstance(target, ast.UnaryOp) and target.op == "*":
            pointer = yield from self._eval(target.operand, env)
            if isinstance(pointer, Pointer):
                pointer.box.write(value, pointer.offset)
                return
            raise InterpError("store through a non-pointer value")
        raise InterpError("unsupported assignment target")

    def _store_pointer(self, target: ast.Expr, value: Pointer, env: Dict[Symbol, Value]) -> None:
        if isinstance(target, ast.Identifier):
            symbol: Symbol = target.symbol  # type: ignore[attr-defined]
            env[symbol] = value
            return
        raise InterpError("pointers may only be stored in simple variables")


# ---------------------------------------------------------------------------
# Scheduler
# ---------------------------------------------------------------------------


class _Task:
    __slots__ = ("generator", "name", "resume_value", "done", "result",
                 "waiting", "children_left", "parent")

    def __init__(self, generator: Generator, name: str = "task"):
        self.generator = generator
        self.name = name
        self.resume_value: Optional[int] = None
        self.done = False
        self.result: Optional[int] = None
        self.waiting: Optional[Event] = None
        self.children_left = 0
        self.parent: Optional["_Task"] = None


class _Scheduler:
    """Round-robin cooperative scheduler with rendezvous channels."""

    def __init__(self, tasks: List[_Task]):
        self.runnable: List[_Task] = list(tasks)
        self.root = tasks[0]
        self.pending_send: Dict[RuntimeChannel, List[Tuple[_Task, int]]] = {}
        self.pending_recv: Dict[RuntimeChannel, List[_Task]] = {}
        self.blocked_count = 0

    def run(self) -> Optional[int]:
        while True:
            if not self.runnable:
                if self._any_blocked():
                    raise InterpError(self._deadlock_message())
                return self.root.result
            task = self.runnable.pop(0)
            self._step(task)

    def _any_blocked(self) -> bool:
        return any(self.pending_send.values()) or any(self.pending_recv.values())

    def _deadlock_message(self) -> str:
        blocked = [
            f"{t.name} (send on {c.name})"
            for c, pairs in self.pending_send.items()
            for t, _ in pairs
        ] + [
            f"{t.name} (recv on {c.name})"
            for c, tasks in self.pending_recv.items()
            for t in tasks
        ]
        return "deadlock: " + ", ".join(sorted(blocked))

    def _step(self, task: _Task) -> None:
        try:
            event = task.generator.send(task.resume_value)
        except StopIteration as stop:
            self._finish(task, stop.value)
            return
        task.resume_value = None
        if isinstance(event, SendEvent):
            receivers = self.pending_recv.get(event.channel, [])
            if receivers:
                receiver = receivers.pop(0)
                receiver.resume_value = event.value
                event.channel.log.append(event.value)
                self.runnable.append(receiver)
                self.runnable.append(task)
            else:
                self.pending_send.setdefault(event.channel, []).append(
                    (task, event.value)
                )
        elif isinstance(event, RecvEvent):
            senders = self.pending_send.get(event.channel, [])
            if senders:
                sender, value = senders.pop(0)
                task.resume_value = value
                event.channel.log.append(value)
                self.runnable.append(task)
                self.runnable.append(sender)
            else:
                self.pending_recv.setdefault(event.channel, []).append(task)
        elif isinstance(event, TickEvent):
            # Untimed golden model: a tick is merely a fairness point.
            self.runnable.append(task)
        elif isinstance(event, SpawnEvent):
            task.children_left = len(event.generators)
            if task.children_left == 0:
                self.runnable.append(task)
                return
            for i, generator in enumerate(event.generators):
                child = _Task(generator, name=f"{task.name}.par{i}")
                child.parent = task
                self.runnable.append(child)
        else:
            raise InterpError(f"unknown scheduler event {event!r}")

    def _finish(self, task: _Task, value: Optional[int]) -> None:
        task.done = True
        task.result = value
        parent = task.parent
        if parent is not None:
            parent.children_left -= 1
            if parent.children_left == 0:
                self.runnable.append(parent)


# ---------------------------------------------------------------------------
# Convenience entry points
# ---------------------------------------------------------------------------


def run_program(
    program: ast.Program,
    info: SemanticInfo,
    function: str = "main",
    args: Sequence[Value] = (),
    max_steps: int = 2_000_000,
) -> ExecutionResult:
    """Run a parsed program under the golden model."""
    return Interpreter(program, info, max_steps=max_steps).run(function, args)


def run_source(
    source: str,
    function: str = "main",
    args: Sequence[Value] = (),
    max_steps: int = 2_000_000,
) -> ExecutionResult:
    """Parse and run source text under the golden model."""
    from ..lang import parse

    program, info = parse(source)
    return run_program(program, info, function, args, max_steps=max_steps)
