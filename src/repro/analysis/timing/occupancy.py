"""Measured per-cycle resource occupancy of compiled artifacts.

The scheduled flows expose occupancy through
:meth:`repro.scheduling.base.BlockSchedule.step_occupancy`; syntax-directed
FSMDs (Handel-C) have no schedule object, so occupancy is measured straight
off the machine's states.  Both the TIM3xx checker rules and the
cross-validation harness use these helpers, which is what makes the
checker's claims testable: the rule *predicts* an oversubscribed cycle, the
harness *measures* it on the artifact the flow actually built.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ...lang.errors import SourceLocation
from ...scheduling.resources import MEMORY_PREFIX, classify


def state_memory_occupancy(fsmd) -> List[Dict[str, int]]:
    """Per-state memory-class usage of one FSMD: ``{"mem:<name>": count}``
    per state, in state order (non-memory classes excluded)."""
    usage: List[Dict[str, int]] = []
    for state in fsmd.states:
        counts: Dict[str, int] = {}
        for op in state.ops:
            resource = classify(op)
            if resource.startswith(MEMORY_PREFIX):
                counts[resource] = counts.get(resource, 0) + 1
        usage.append(counts)
    return usage


def fsmd_port_violations(
    fsmd, memory_ports: int = 1
) -> List[Tuple[int, str, int, Optional[SourceLocation]]]:
    """States whose measured memory occupancy exceeds the RAM's ports:
    ``(state_id, class, used, location)``, location being the first
    source-tracked access of the oversubscribed memory in that state."""
    violations: List[Tuple[int, str, int, Optional[SourceLocation]]] = []
    for state, counts in zip(fsmd.states, state_memory_occupancy(fsmd)):
        for resource, used in sorted(counts.items()):
            if used <= memory_ports:
                continue
            location = next(
                (
                    op.location
                    for op in state.ops
                    if classify(op) == resource and op.location is not None
                ),
                None,
            )
            violations.append((state.id, resource, used, location))
    return violations


def system_port_violations(
    system, memory_ports: int = 1
) -> List[Tuple[str, int, str, int, Optional[SourceLocation]]]:
    """Port violations across every machine of an :class:`FSMDSystem`:
    ``(fsmd_name, state_id, class, used, location)``."""
    found = []
    for fsmd in system.fsmds:
        for state_id, resource, used, location in fsmd_port_violations(
            fsmd, memory_ports
        ):
            found.append((fsmd.name, state_id, resource, used, location))
    return found


def constrained_channel_ops(design) -> List[Tuple[str, Optional[SourceLocation]]]:
    """SEND/RECV operations carrying a ``within`` constraint group in a
    compiled scheduled design — the measured artifact fact that validates
    TIM101 (an unbounded-latency rendezvous under a fixed-cycle budget).
    Returns ``(op kind name, location)`` pairs."""
    from ...ir.ops import OpKind

    found: List[Tuple[str, Optional[SourceLocation]]] = []
    for artifact in getattr(design, "artifacts", ()):
        for op in artifact.cdfg.iter_ops():
            if op.kind in (OpKind.SEND, OpKind.RECV) and op.constraint is not None:
                found.append((op.kind.name, op.location))
    return found
