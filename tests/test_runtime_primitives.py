"""Direct tests of low-level runtime primitives: interpreter storage,
FSMD containers, and the flow base plumbing."""

import pytest

from repro.flows import DesignCost, REGISTRY, UnsupportedFeature
from repro.flows.base import _roots_of
from repro.interp.interpreter import Box, Pointer, RuntimeChannel
from repro.lang import InterpError, parse
from repro.lang.types import INT, IntType
from repro.rtl.fsmd import FSMD, FSMDSystem


# ---------------------------------------------------------------------------
# Interpreter storage
# ---------------------------------------------------------------------------


def test_box_wraps_on_write():
    box = Box(IntType(8, signed=True), 1, "b")
    box.write(200)
    assert box.read() == -56


def test_box_bounds_checked():
    box = Box(INT, 4, "buf")
    box.write(1, 3)
    assert box.read(3) == 1
    with pytest.raises(InterpError):
        box.read(4)
    with pytest.raises(InterpError):
        box.write(0, -1)


def test_pointer_add_is_pure():
    box = Box(INT, 8, "buf")
    p = Pointer(box, 2)
    q = p.add(3)
    assert p.offset == 2
    assert q.offset == 5
    assert q.box is box


def test_runtime_channel_logs_nothing_initially():
    channel = RuntimeChannel("c", INT)
    assert channel.log == []


# ---------------------------------------------------------------------------
# Flow base plumbing
# ---------------------------------------------------------------------------


def test_roots_include_processes_once():
    program, _ = parse(
        """
        chan<int> c;
        process void p() { send(c, 1); }
        process void q() { send(c, 2); }
        int main() { return recv(c) + recv(c); }
        """
    )
    assert _roots_of(program, "main") == ["main", "p", "q"]


def test_check_features_names_flow_and_reason():
    program, info = parse(
        "int main() { int x = 1; int *p = &x; return *p; }"
    )
    flow = REGISTRY["handelc"]
    with pytest.raises(UnsupportedFeature) as excinfo:
        flow.compile(program, info, "main")
    message = str(excinfo.value)
    assert "handelc" in message and "pointer" in message.lower()


def test_design_cost_fmax():
    assert DesignCost(clock_ns=5.0).fmax_mhz == pytest.approx(200.0)
    assert DesignCost(clock_ns=0.0).fmax_mhz == 0.0


def test_flow_metadata_is_complete():
    for key, flow in REGISTRY.items():
        meta = flow.metadata
        assert meta.key == key
        assert meta.title and meta.note and meta.reference
        assert meta.concurrency in ("explicit", "compiler", "structural")
        assert 1988 <= meta.year <= 2003


# ---------------------------------------------------------------------------
# FSMD containers
# ---------------------------------------------------------------------------


def test_fsmd_system_partitions_shared_arrays():
    from repro.api import synthesize

    design = synthesize(
        """
        int shared[4];
        int main(int i) {
            int private[4];
            private[0] = i;
            shared[1] = private[0];
            return shared[1];
        }
        """,
        flow="c2verilog",
    ).design
    fsmd = design.system.root
    shared_names = {a.name for a in fsmd.shared_arrays()}
    local_names = {a.name for a in fsmd.local_arrays()}
    assert "shared" in shared_names
    assert any(n.startswith("private") for n in local_names)
    assert design.run(args=(9,)).value == 9


def test_fsmd_system_totals():
    from repro.api import synthesize

    design = synthesize(
        """
        chan<int> c;
        process void p() { send(c, 3); }
        int main() { return recv(c); }
        """,
        flow="bachc",
    ).design
    system = design.system
    assert len(system.fsmds) == 2
    assert system.root.name == "main"
    assert system.total_states() == sum(f.n_states for f in system.fsmds)
