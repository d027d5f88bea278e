"""Where each block of a single-machine FSMD runs in generated code.

The compiled engine's fast path (:mod:`repro.sim.compiled`) emits one
Python function whose outer ``while True`` dispatches on a state number.
Going through that dispatch costs a few comparisons per visit, so a
block should run *in place* wherever the control flow allows.  This
module decides where, in the manner of Ramsey's "Beyond Relooper"
(ICFP 2022), adapted to Python's ``continue`` and ``break``:

* each block is emitted once, in dominator-tree order;
* a block with one way in runs inside the branch arm that leads to it;
* a join (two or more forward ways in) runs after its immediate
  dominator's if/else, reached by falling through;
* a natural loop becomes ``while True:``; a back edge is ``continue``,
  and the loop's one exit target, if it dominates, runs after the loop
  and is reached by ``break`` (else ``break`` reaches whatever follows
  the loop, such as its parent's join).

What Python cannot express stays a case of the dispatch tree: exits of
more than one loop level, irreducible flow, joins reached other than by
falling through, and nesting deeper than ``max_nesting``.  These are
found by walking the layout and demoting what fails, until nothing does.
Two kinds of block are copied before they are demoted (node splitting,
within a budget of copied states): the entry of an irreducible loop
whose copy enters the loop only at its other entry takes the ways in
from outside the loop, so the loop becomes natural; and a join inside a
natural loop that no fall-through reaches gets a copy for the way in
that failed, which runs in that branch arm.  Handel-C's bubble sort
needs both: once its inner loop is natural, the outer loop's latch is
a join of the inner loop's exit and of the arm that skips the inner
loop.  Within a case, a branch to another case sets ``state`` and
leaves by ``continue`` (the dispatch loop's) or, in a case that is
itself a loop, by ``break``.

An innermost loop whose iteration is acyclic tests
the cycle budget once per iteration, against its longest path in
cycles: ``if cycle <= _m<W>:`` runs the iteration with no test, each way
out adding the cycles of its own path, and the ``else:`` runs it state
by state (see :data:`STEP`), so the budget fires on exactly the
interpreter's cycle.  The walk writes through :class:`Emitter`, the line
buffer the generator lowers states into; :class:`Silent` keeps nothing,
for walks run only for what they decide.
"""

from __future__ import annotations

from typing import (
    Callable, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple,
)

# Python refuses more than 20 statically nested loops; the dispatch loop
# is one of them.
MAX_LOOP_NESTING = 16
# Node splitting copies blocks of at most this many states, and at most
# this many states in all per machine.
SPLIT_STATES = 4
SPLIT_BUDGET = 16
# The cycle tally of a block run by an iteration's state-by-state path.
STEP = -1

# Emits one block into an emitter; its branches act through the callback.
# The tally says how the block meets the cycle budget: None, it tests the
# budget itself; STEP, it tests before each state; n >= 0, its iteration
# already did, and n cycles of the path up to the block's end are not yet
# added to ``cycle`` (ways out the walk emits add them; a ``return`` must
# too).
Branch = Callable[[int], List[str]]
EmitNode = Callable[[object, int, Branch, Optional[int]], None]


class Emitter:
    """Indented line buffer for generated code; :attr:`written` counts
    the statements written so far."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.depth = 0
        self.written = 0

    def line(self, text: str) -> None:
        self.written += 1
        self.lines.append("    " * self.depth + text)

    def extend(self, lines: Sequence[str]) -> None:
        self.written += len(lines)
        pad = "    " * self.depth
        self.lines.extend(pad + text for text in lines)

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


class Silent(Emitter):
    """Keeps nothing: for walks and lowerings run only for what they
    decide, not for their code."""

    def line(self, text: str) -> None:
        pass

    def extend(self, lines: Sequence[str]) -> None:
        pass


def reverse_postorder(entry: int, successors) -> List[int]:
    """The nodes reachable from ``entry``, in reverse postorder;
    ``successors[node]`` lists where ``node`` leads."""
    order: List[int] = []
    seen = {entry}
    stack = [(entry, iter(successors[entry]))]
    while stack:
        node, pending = stack[-1]
        for nxt in pending:
            if nxt not in seen:
                seen.add(nxt)
                stack.append((nxt, iter(successors[nxt])))
                break
        else:
            stack.pop()
            order.append(node)
    order.reverse()
    return order


class _Demote(Exception):
    """The layout cannot place ``node`` in place: it becomes a case,
    unless the way in from ``source`` can take a copy of it."""

    def __init__(self, node: int, source: Optional[int] = None):
        super().__init__(node)
        self.node = node
        self.source = source


class _Cyclic(Exception):
    """A loop's iteration runs another loop in place: no superblock."""


class _Context(NamedTuple):
    # Enclosing in-place loops, innermost last: (header, the block that
    # runs after the loop, if any).
    loops: Tuple[Tuple[int, Optional[int]], ...]
    # Whether loops[0] is the case's own loop (exits leave by ``break``).
    rooted: bool
    # The block whose code runs when this code falls off its end.
    after: Optional[int]
    # Indentation levels added since the case began.
    depth: int
    # Inside a superblock's iteration: cycles of the path up to the
    # block's end not yet added to ``cycle`` (or STEP); None elsewhere.
    tally: Optional[int] = None
    # Cycles of the iteration added before this block's tally began.
    start: int = 0

    @property
    def fast(self) -> bool:
        """Whether this code runs under its iteration's one budget test."""
        return self.tally is not None and self.tally != STEP


class BlockLayout:
    """Placement of the blocks of one machine.

    ``leaves`` maps each block head to the heads its transition names,
    with how many if/else levels deep each sits; ``weights`` gives each
    block's number of states; ``entry`` is where the machine starts.
    :attr:`dispatched` are the block heads that stay cases of the
    dispatch tree, :attr:`copies` maps each copy a split made to the
    block it copies, and :attr:`spans` are the iteration lengths the
    superblocks test the budget against."""

    def __init__(self, heads: Sequence[int], entry: int,
                 leaves: Dict[int, List[Tuple[int, int]]],
                 weights: Dict[int, int], max_nesting: int):
        self.heads = set(heads)
        self.entry = entry
        self.max_nesting = max_nesting
        self.weights = dict(weights)
        self.targets = {h: [t for t, _ in leaves.get(h, ())] for h in heads}
        self.arm_depth = {h: max((d for _, d in leaves.get(h, ())), default=0)
                          for h in heads}
        self.copies: Dict[int, int] = {}
        # (block, state its transition names) -> the copy it branches to.
        self.redirect: Dict[Tuple[int, int], int] = {}
        self.spans: Set[int] = set()
        self._fresh = max(self.heads) + 1
        self._copied = 0
        self._longest = 0
        self._reach: Dict[int, int] = {}
        while True:
            dispatched = self._analyse()
            if dispatched is not None:
                dispatched = self._plan(dispatched)
            if dispatched is not None:
                self.dispatched = dispatched
                return

    def original(self, head: int) -> int:
        """The block whose states ``head`` runs."""
        return self.copies.get(head, head)

    @property
    def looping(self) -> Set[int]:
        """The blocks some natural loop runs, by the block they copy."""
        return {self.original(h) for body in self.body.values() for h in body}

    @property
    def single_case(self) -> bool:
        """Whether the dispatch tree would have the entry as its only case
        and nothing ever branches to a case."""
        return self.dispatched == {self.entry} and all(
            t in self.heads for h in self.heads for t in self.targets[h])

    # -- graph analysis -----------------------------------------------------

    def _analyse(self) -> Optional[Set[int]]:
        """Dominators, loops and joins of the current graph; the blocks
        that must be cases, or None when a split changed the graph."""
        self.successors = {
            h: [t for t in (self.redirect.get((h, n), n)
                            for n in self.targets[h]) if t in self.heads]
            for h in self.heads
        }
        self.order = reverse_postorder(self.entry, self.successors)
        self.rank = {h: i for i, h in enumerate(self.order)}
        self.preds: Dict[int, List[int]] = {h: [] for h in self.order}
        for u in self.order:
            for t in self.successors[u]:
                self.preds[t].append(u)
        self.idom = self._dominators()
        self.children: Dict[int, List[int]] = {}
        for h in self.order[1:]:
            self.children.setdefault(self.idom[h], []).append(h)
        for kids in self.children.values():
            kids.sort(key=self.rank.__getitem__)
        dispatched = set(self.heads) - set(self.order)    # never reached
        dispatched.add(self.entry)
        self.headers: Set[int] = set()
        back_sources: Dict[int, List[int]] = {}
        forward: Dict[int, int] = {}
        for u in self.order:
            for t in self.successors[u]:
                if self.rank[t] > self.rank[u]:
                    forward[t] = forward.get(t, 0) + 1
                elif self._dominates(t, u):
                    self.headers.add(t)
                    back_sources.setdefault(t, []).append(u)
                elif self._split_entry(t):
                    return None
                else:
                    dispatched.add(t)           # irreducible: a way in
        self.merges = {t for t, ways in forward.items() if ways > 1}
        self.body = {h: self._loop_body(h, back_sources[h])
                     for h in self.headers}
        self.follow: Dict[int, int] = {}
        for h, body in self.body.items():
            exits = {t for u in body for t in self.successors[u]
                     if t not in body}
            if len(exits) == 1:
                (target,) = exits
                if self._dominates(h, target):
                    self.follow[h] = target
        return dispatched

    def _dominators(self) -> Dict[int, int]:
        """Immediate dominators (Cooper, Harvey and Kennedy's iteration)."""
        rank = self.rank
        idom = {self.entry: self.entry}

        def intersect(a: int, b: int) -> int:
            while a != b:
                while rank[a] > rank[b]:
                    a = idom[a]
                while rank[b] > rank[a]:
                    b = idom[b]
            return a

        changed = True
        while changed:
            changed = False
            for h in self.order[1:]:
                done = [p for p in self.preds[h] if p in idom]
                new = done[0]
                for p in done[1:]:
                    new = intersect(p, new)
                if idom.get(h) != new:
                    idom[h] = new
                    changed = True
        return idom

    def _dominates(self, a: int, b: int) -> bool:
        while True:
            if a == b:
                return True
            if b == self.entry:
                return False
            b = self.idom[b]

    def _loop_body(self, header: int, sources: List[int]) -> Set[int]:
        body = {header}
        work = [s for s in sources if s != header]
        while work:
            node = work.pop()
            if node not in body:
                body.add(node)
                work.extend(self.preds.get(node, ()))
        return body

    # -- node splitting -----------------------------------------------------

    def _split_entry(self, target: int) -> bool:
        """Make the irreducible loop ``target`` enters natural, by giving
        one of its two entries a copy for the ways in from outside.

        The loop is the strongly connected part, around ``target``, of
        what ``target``'s immediate dominator strictly dominates.  An
        entry qualifies when the only block of the loop it leads to is
        the other entry (which becomes the loop's header); of two that
        qualify, the one with fewer states is copied."""
        top = self.idom[target]
        inside = {h for h in self.order
                  if h != top and self._dominates(top, h)}

        def reach(start: int, edges) -> Set[int]:
            seen, work = {start}, [start]
            while work:
                for nxt in edges(work.pop()):
                    if nxt in inside and nxt not in seen:
                        seen.add(nxt)
                        work.append(nxt)
            return seen

        loop = (reach(target, self.successors.__getitem__)
                & reach(target, self.preds.__getitem__))
        entries = [h for h in loop
                   if any(p not in loop for p in self.preds[h])]
        if len(entries) != 2:
            return False
        for entry in sorted(entries, key=self.weights.__getitem__):
            (header,) = (h for h in entries if h != entry)
            if all(t == header for t in self.successors[entry] if t in loop):
                return self._split(entry, [p for p in self.preds[entry]
                                           if p not in loop])
        return False

    def _split(self, node: int, sources: List[int]) -> bool:
        """Give the ways into ``node`` from ``sources`` a copy of it."""
        weight = self.weights[node]
        if (node == self.entry or node in self.headers
                or weight > SPLIT_STATES
                or self._copied + weight > SPLIT_BUDGET):
            return False
        copy = self._fresh
        self._fresh += 1
        self._copied += weight
        self.copies[copy] = self.original(node)
        self.heads.add(copy)
        self.targets[copy] = list(self.targets[node])
        self.arm_depth[copy] = self.arm_depth[node]
        self.weights[copy] = weight
        for source in sources:
            for named in self.targets[source]:
                if self.redirect.get((source, named), named) == node:
                    self.redirect[(source, named)] = copy
        return True

    # -- placement ----------------------------------------------------------

    def _plan(self, dispatched: Set[int]) -> Optional[Set[int]]:
        """Demote what the walk cannot place until every case walks; None
        when a split changed the graph instead."""
        self.dispatched = dispatched
        while True:
            failed: Dict[int, Optional[int]] = {}
            for root in sorted(dispatched):
                if root not in self.rank:
                    continue
                try:
                    self.walk_case(Silent(), root, _plan_node(self))
                except _Demote as demoted:
                    failed[demoted.node] = demoted.source
            if not failed:
                return dispatched
            # Only a loop's blocks are worth a copy: the rest run once.
            looping = {h for body in self.body.values() for h in body}
            split = [self._split(node, [source])
                     for node, source in failed.items()
                     if source is not None and node in looping]
            if any(split):
                return None
            dispatched |= set(failed)

    def _follow(self, header: int) -> Optional[int]:
        target = self.follow.get(header)
        return None if target is None or target in self.dispatched else target

    def _joins(self, node: int) -> List[int]:
        """Merge children of ``node`` that run after its code."""
        return [c for c in self.children.get(node, ())
                if c in self.merges and c not in self.dispatched
                and not self._is_follow(c)]

    def _is_follow(self, node: int) -> bool:
        return any(t == node and h not in self.dispatched
                   for h, t in self.follow.items())

    def walk_case(self, out, root: int, emit_node: EmitNode) -> None:
        """Emit the case that starts at ``root`` into ``out``."""
        self._emit_node = emit_node
        if root in self.headers:
            self._loop(out, root, _Context(((root, None),), True, root, 0))
        else:
            self._within(out, root, self._joins(root),
                         _Context((), False, None, 0))

    def _tree(self, out, node: int, context: _Context) -> None:
        """``node`` and what it dominates, run in place."""
        if node not in self.headers:
            self._within(out, node, self._joins(node), context)
            return
        if context.tally is not None:
            raise _Cyclic()
        if len(context.loops) >= MAX_LOOP_NESTING \
                or context.depth + 1 > self.max_nesting:
            raise _Demote(node)
        # The loop's exit target runs after it; with none, what follows
        # the loop is what follows this code.
        follow = self._follow(node)
        exit_to = context.after if follow is None else follow
        self._loop(out, node, _Context(context.loops + ((node, exit_to),),
                                       context.rooted, node, context.depth))
        if follow is not None:
            self._tree(out, follow, context)

    def _loop(self, out, header: int, context: _Context) -> None:
        """``while True:`` around ``header``'s iteration; ``context`` is
        the iteration's, but for the indentation the loop adds.

        A superblock places its blocks exactly as the plain loop does: its
        ``if``/``else`` adds one indentation level, left out of the depth
        count (an iteration holds no loop, so no path adds two), and its
        fall-back on an inner loop changes no placement.  So a walk that
        only decides placement (into :class:`Silent`) takes the plain
        loop, and a loop of one block keeps the block's own test, which is
        already one per iteration."""
        out.line("while True:")
        out.depth += 1
        joins = self._joins(header)
        inner = context._replace(depth=context.depth + 1)
        if not isinstance(out, Silent) and len(self.body[header]) > 1:
            fast, step = Emitter(), Emitter()
            fast.depth = step.depth = 1
            self._longest, self._reach = 0, {}
            try:
                self._within(fast, header, joins,
                             inner._replace(tally=self.weights[header]))
                span = self._longest
                self._within(step, header, joins, inner._replace(tally=STEP))
            except _Cyclic:
                pass
            else:
                self.spans.add(span)
                out.line(f"if cycle <= _m{span}:")
                out.extend(fast.lines)
                out.line("else:")
                out.extend(step.lines)
                out.depth -= 1
                return
        self._within(out, header, joins, inner)
        out.depth -= 1

    def _within(self, out, node: int, joins: List[int],
                context: _Context) -> None:
        """``node``'s code, then its joins, each falling into the next."""
        afters = joins[1:] + [context.after]
        first = context._replace(after=joins[0] if joins else context.after)
        self._emit_node(out, self.original(node),
                        lambda target: self._branch(out, node, target, first),
                        context.tally)
        if context.fast:
            self._longest = max(self._longest, context.start + context.tally)
        for join, after in zip(joins, afters):
            inner = context._replace(after=after)
            if context.fast:
                # Every way into the join added its cycles too.
                inner = inner._replace(tally=0,
                                start=self._reach.get(join, self._longest))
            self._tree(out, join, inner)

    def _branch(self, out, source: int, target: int,
                context: _Context) -> List[str]:
        """The statements that take control from ``source`` to
        ``target``."""
        target = self.redirect.get((source, target), target)
        loops = context.loops
        if loops and target == loops[-1][0]:
            return self._leave(context,
                               [] if context.after == target else ["continue"])
        if loops and target == loops[-1][1] is not None:
            return self._leave(context, ["break"])
        if target == context.after:
            return self._leave(context, [], join=target)
        if (target not in self.heads or target in self.dispatched
                or source not in self.rank):
            return self._leave(context,
                               self._dispatch(target, context))
        if (target not in self.merges and self.idom.get(target) == source
                and not self._is_follow(target)):
            depth = context.depth + self.arm_depth[source] + 1
            if depth > self.max_nesting:
                raise _Demote(target)
            tally = context.tally
            if context.fast:
                tally += self.weights[target]
            inner = out.__class__()
            self._tree(inner, target,
                       context._replace(depth=depth, tally=tally))
            return inner.lines
        raise _Demote(target, source)

    def _leave(self, context: _Context, lines: List[str],
               join: Optional[int] = None) -> List[str]:
        """``lines`` leave a block; in a superblock's iteration they
        first add the cycles of the path that ends here (into a join: and
        of the join)."""
        if not context.fast:
            return lines
        spent = context.tally
        if join is not None:
            spent += self.weights[join]
            self._reach[join] = max(self._reach.get(join, 0),
                                    context.start + spent)
        return [f"cycle += {spent}"] + lines if spent else lines

    def _dispatch(self, target: int, context: _Context) -> List[str]:
        if not context.loops:
            return [f"state = {target}", "continue"]
        if len(context.loops) == 1 and context.rooted:
            return [f"state = {target}", "break"]
        # An exit from an in-place loop: that loop becomes a case.
        raise _Demote(context.loops[-1][0])


def _plan_node(layout: BlockLayout) -> EmitNode:
    def node(out, head: int, branch: Branch, tally: Optional[int]) -> None:
        for target in layout.targets[head]:
            branch(target)
    return node
