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
Within a case, a branch to another case sets ``state`` and leaves by
``continue`` (the dispatch loop's) or, in a case that is itself a loop,
by ``break``.  The walk writes through :class:`Emitter`, the line buffer
the generator lowers states into; :class:`Silent` keeps nothing, for
walks run only for what they decide.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

# Python refuses more than 20 statically nested loops; the dispatch loop
# is one of them.
MAX_LOOP_NESTING = 16

# Emits one block into an emitter; its branches act through the callback.
Branch = Callable[[int], List[str]]
EmitNode = Callable[[object, int, Branch], None]


class Emitter:
    """Indented line buffer for generated code."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.depth = 0

    def line(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)

    def extend(self, lines: Sequence[str]) -> None:
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
    """The layout cannot place ``node`` in place: it becomes a case."""

    def __init__(self, node: int):
        super().__init__(node)
        self.node = node


@dataclass(frozen=True)
class _Context:
    # Enclosing in-place loops, innermost last: (header, the block that
    # runs after the loop, if any).
    loops: Tuple[Tuple[int, Optional[int]], ...]
    # Whether loops[0] is the case's own loop (exits leave by ``break``).
    rooted: bool
    # The block whose code runs when this code falls off its end.
    after: Optional[int]
    # Indentation levels added since the case began.
    depth: int


class BlockLayout:
    """Placement of the blocks of one machine.

    ``leaves`` maps each block head to the heads its transition names,
    with how many if/else levels deep each sits; ``entry`` is where the
    machine starts.  :attr:`dispatched` are the block heads that stay
    cases of the dispatch tree."""

    def __init__(self, heads: Sequence[int], entry: int,
                 leaves: Dict[int, List[Tuple[int, int]]],
                 max_nesting: int):
        self.heads = set(heads)
        self.entry = entry
        self.max_nesting = max_nesting
        self.targets = {h: [t for t, _ in leaves.get(h, ())] for h in heads}
        self.successors = {
            h: [t for t in self.targets[h] if t in self.heads] for h in heads
        }
        self.arm_depth = {h: max((d for _, d in leaves.get(h, ())), default=0)
                          for h in heads}
        self.order = reverse_postorder(entry, self.successors)
        self.rank = {h: i for i, h in enumerate(self.order)}
        self.idom = self._dominators()
        self.children: Dict[int, List[int]] = {}
        for h in self.order[1:]:
            self.children.setdefault(self.idom[h], []).append(h)
        for kids in self.children.values():
            kids.sort(key=self.rank.__getitem__)
        dispatched = set(self.heads) - set(self.order)    # never reached
        dispatched.add(entry)
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
        self.dispatched = self._plan(dispatched)

    # -- graph analysis -----------------------------------------------------

    def _dominators(self) -> Dict[int, int]:
        """Immediate dominators (Cooper, Harvey and Kennedy's iteration)."""
        rank = self.rank
        preds: Dict[int, List[int]] = {h: [] for h in self.order}
        for u in self.order:
            for t in self.successors[u]:
                preds[t].append(u)
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
                done = [p for p in preds[h] if p in idom]
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
        preds: Dict[int, List[int]] = {}
        for u in self.order:
            for t in self.successors[u]:
                preds.setdefault(t, []).append(u)
        body = {header}
        work = [s for s in sources if s != header]
        while work:
            node = work.pop()
            if node not in body:
                body.add(node)
                work.extend(preds.get(node, ()))
        return body

    # -- placement ----------------------------------------------------------

    def _plan(self, dispatched: Set[int]) -> Set[int]:
        """Demote what the walk cannot place until every case walks."""
        self.dispatched = dispatched
        while True:
            failed: Set[int] = set()
            for root in sorted(dispatched):
                if root not in self.rank:
                    continue
                try:
                    self.walk_case(Silent(), root, _plan_node(self))
                except _Demote as demoted:
                    failed.add(demoted.node)
            if not failed:
                return dispatched
            dispatched |= failed

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
            out.line("while True:")
            out.depth += 1
            context = _Context(((root, None),), True, root, 1)
            self._within(out, root, self._joins(root), context)
            out.depth -= 1
        else:
            self._within(out, root, self._joins(root),
                         _Context((), False, None, 0))

    def _tree(self, out, node: int, context: _Context) -> None:
        """``node`` and what it dominates, run in place."""
        if node not in self.headers:
            self._within(out, node, self._joins(node), context)
            return
        if len(context.loops) >= MAX_LOOP_NESTING \
                or context.depth + 1 > self.max_nesting:
            raise _Demote(node)
        # The loop's exit target runs after it; with none, what follows
        # the loop is what follows this code.
        follow = self._follow(node)
        exit_to = context.after if follow is None else follow
        out.line("while True:")
        out.depth += 1
        inner = _Context(context.loops + ((node, exit_to),), context.rooted,
                         node, context.depth + 1)
        self._within(out, node, self._joins(node), inner)
        out.depth -= 1
        if follow is not None:
            self._tree(out, follow, context)

    def _within(self, out, node: int, joins: List[int],
                context: _Context) -> None:
        """``node``'s code, then its joins, each falling into the next."""
        afters = joins[1:] + [context.after]
        first = replace(context, after=joins[0] if joins else context.after)
        self._emit_node(out, node,
                        lambda target: self._branch(out, node, target, first))
        for join, after in zip(joins, afters):
            self._tree(out, join, replace(context, after=after))

    def _branch(self, out, source: int, target: int,
                context: _Context) -> List[str]:
        """The statements that take control from ``source`` to
        ``target``."""
        loops = context.loops
        if loops and target == loops[-1][0]:
            return [] if context.after == target else ["continue"]
        if loops and target == loops[-1][1] is not None:
            return ["break"]
        if target == context.after:
            return []
        if (target not in self.heads or target in self.dispatched
                or source not in self.rank):
            return self._dispatch(target, context)
        if (target not in self.merges and self.idom.get(target) == source
                and not self._is_follow(target)):
            depth = context.depth + self.arm_depth[source] + 1
            if depth > self.max_nesting:
                raise _Demote(target)
            inner = out.__class__()
            self._tree(inner, target, replace(context, depth=depth))
            return inner.lines
        raise _Demote(target)

    def _dispatch(self, target: int, context: _Context) -> List[str]:
        if not context.loops:
            return [f"state = {target}", "continue"]
        if len(context.loops) == 1 and context.rooted:
            return [f"state = {target}", "break"]
        # An exit from an in-place loop: that loop becomes a case.
        raise _Demote(context.loops[-1][0])


def _plan_node(layout: BlockLayout) -> EmitNode:
    def node(out, head: int, branch: Branch) -> None:
        for target in layout.targets[head]:
            branch(target)
    return node
