"""Unit tests for signals, data lines and bus arbiters."""

import pytest

from repro.errors import ArbitrationError, SimulationError
from repro.sim.analysis import analyze_arbiter
from repro.sim.arbiter import (
    ImmediateArbiter,
    PriorityArbiter,
    RoundRobinArbiter,
    TdmaArbiter,
)
from repro.sim.kernel import Simulator, Wait
from repro.sim.signals import DataLines, Signal


class TestSignal:
    def test_set_and_read(self):
        signal = Signal("s", init=3)
        assert signal.value == 3
        signal.set(7)
        assert signal.value == 7

    def test_trace_records_changes(self):
        time = [0]
        signal = Signal("s", clock=lambda: time[0], trace=True)
        time[0] = 5
        signal.set(1)
        time[0] = 9
        signal.set(2)
        assert signal.changes == [(0, 0), (5, 1), (9, 2)]

    def test_redundant_sets_not_recorded(self):
        signal = Signal("s", clock=lambda: 0, trace=True)
        signal.set(0)
        assert signal.changes == [(0, 0)]


class TestDataLines:
    def test_resolution_ors_disjoint_drivers(self):
        data = DataLines("d", 8)
        data.drive("accessor", 0x0F, 0x0F)
        data.drive("server", 0xA0, 0xF0)
        assert data.value == 0xAF

    def test_overlapping_drivers_conflict(self):
        data = DataLines("d", 8)
        data.drive("accessor", 0x0F, 0x0F)
        with pytest.raises(SimulationError, match="conflict"):
            data.drive("server", 0x01, 0x01)

    def test_same_role_replaces(self):
        data = DataLines("d", 8)
        data.drive("accessor", 0x0F, 0xFF)
        data.drive("accessor", 0xF0, 0xF0)
        assert data.value == 0xF0

    def test_release(self):
        data = DataLines("d", 8)
        data.drive("accessor", 0xFF, 0xFF)
        data.release("accessor")
        assert data.value == 0

    def test_zero_mask_releases(self):
        data = DataLines("d", 8)
        data.drive("accessor", 0xFF, 0xFF)
        data.drive("accessor", 0, 0)
        assert data.value == 0

    def test_mask_exceeding_width_rejected(self):
        data = DataLines("d", 4)
        with pytest.raises(SimulationError, match="width"):
            data.drive("accessor", 0x10, 0x10)

    def test_value_outside_mask_rejected(self):
        data = DataLines("d", 8)
        with pytest.raises(SimulationError, match="outside"):
            data.drive("accessor", 0xFF, 0x0F)


def run_acquire_release(arbiter_factory, names, hold=3):
    """Run several processes contending for a bus; returns grant log."""
    sim = Simulator()
    arbiter = arbiter_factory(sim)
    order = []

    def proc(name):
        yield from arbiter.acquire(name)
        order.append((name, sim.now))
        yield Wait(hold)
        arbiter.release(name)

    for name in names:
        sim.add_process(name, proc(name))
    sim.run()
    return order, arbiter


class TestImmediateArbiter:
    def test_fifo_order(self):
        order, arbiter = run_acquire_release(ImmediateArbiter, ["a", "b", "c"])
        assert [name for name, _ in order] == ["a", "b", "c"]
        assert [t for _, t in order] == [0, 3, 6]

    def test_wait_clocks_accumulated(self):
        _, arbiter = run_acquire_release(ImmediateArbiter, ["a", "b", "c"])
        # b waits 3, c waits 6.
        assert analyze_arbiter(arbiter.grants).wait_clocks == 9

    def test_grant_log_folds_waits_and_queue_depths(self):
        _, arbiter = run_acquire_release(ImmediateArbiter, ["a", "b", "c"])
        # a is granted on request; b then queues alone, c behind b.
        assert arbiter.grants == [(0, "a", 0, 1), (3, "b", 3, 1),
                                  (6, "c", 6, 2)]
        stats = analyze_arbiter(arbiter.grants)
        assert stats.requests == 3
        assert stats.grants == {"a": 1, "b": 1, "c": 1}
        assert stats.max_queue_depth == 2
        assert stats.mean_queue_depth == pytest.approx(4 / 3)
        assert (stats.wait.count, stats.wait.min, stats.wait.max) == (3, 0, 6)

    def test_nested_acquire_rejected(self):
        sim = Simulator()
        arbiter = ImmediateArbiter(sim)

        def proc():
            yield from arbiter.acquire("p")
            yield from arbiter.acquire("p")

        sim.add_process("p", proc())
        with pytest.raises(SimulationError):
            sim.run()

    def test_release_by_non_owner_rejected(self):
        sim = Simulator()
        arbiter = ImmediateArbiter(sim)
        with pytest.raises(ArbitrationError):
            arbiter.release("nobody")


class TestPriorityArbiter:
    def test_higher_priority_preempts_queue(self):
        """When the bus frees, the highest-priority waiter wins even if
        it asked later."""
        sim = Simulator()
        arbiter = PriorityArbiter(sim, priorities={"lo": 5, "hi": 1})
        order = []

        def holder():
            yield from arbiter.acquire("holder")
            yield Wait(5)
            arbiter.release("holder")

        def requester(name, start):
            yield Wait(start)
            yield from arbiter.acquire(name)
            order.append(name)
            yield Wait(1)
            arbiter.release(name)

        sim.add_process("holder", holder())
        sim.add_process("lo", requester("lo", 1))
        sim.add_process("hi", requester("hi", 2))
        sim.run()
        assert order == ["hi", "lo"]

    def test_grant_delay_costs_clocks(self):
        sim = Simulator()
        arbiter = PriorityArbiter(sim, priorities={}, grant_delay=4)
        times = {}

        def proc():
            yield from arbiter.acquire("p")
            times["granted"] = sim.now
            arbiter.release("p")

        sim.add_process("p", proc())
        sim.run()
        assert times["granted"] == 4


class TestRoundRobinArbiter:
    def test_rotation(self):
        order, _ = run_acquire_release(
            lambda sim: RoundRobinArbiter(sim, ["a", "b", "c"]),
            ["a", "b", "c"])
        assert [name for name, _ in order] == ["a", "b", "c"]

    def test_rotation_starts_after_last_owner(self):
        sim = Simulator()
        arbiter = RoundRobinArbiter(sim, ["a", "b"])
        order = []

        def proc(name, rounds):
            for _ in range(rounds):
                yield from arbiter.acquire(name)
                order.append(name)
                yield Wait(1)
                arbiter.release(name)

        sim.add_process("a", proc("a", 2))
        sim.add_process("b", proc("b", 2))
        sim.run()
        assert order == ["a", "b", "a", "b"]

    def test_empty_members_rejected(self):
        with pytest.raises(ArbitrationError):
            RoundRobinArbiter(Simulator(), [])


class TestTdmaArbiter:
    def test_requester_waits_for_its_slot(self):
        sim = Simulator()
        arbiter = TdmaArbiter(sim, schedule=["a", "b"], slot_clocks=10)
        times = {}

        def proc(name):
            yield from arbiter.acquire(name)
            times[name] = sim.now
            yield Wait(1)
            arbiter.release(name)

        sim.add_process("b", proc("b"))
        sim.run()
        # b's slot begins at clock 10.
        assert times["b"] == 10

    def test_own_slot_grants_immediately(self):
        sim = Simulator()
        arbiter = TdmaArbiter(sim, schedule=["a", "b"], slot_clocks=10)
        times = {}

        def proc():
            yield from arbiter.acquire("a")
            times["a"] = sim.now
            arbiter.release("a")

        sim.add_process("a", proc())
        sim.run()
        assert times["a"] == 0

    def test_unscheduled_requester_rejected(self):
        sim = Simulator()
        arbiter = TdmaArbiter(sim, schedule=["a"], slot_clocks=4)

        def proc():
            yield from arbiter.acquire("ghost")

        sim.add_process("ghost", proc())
        with pytest.raises(SimulationError):
            sim.run()

    def test_nested_acquire_rejected(self):
        """The slot owner re-acquiring fails at once, like the base
        arbiter, instead of polling for a free bus that never comes."""
        sim = Simulator()
        arbiter = TdmaArbiter(sim, schedule=["p"], slot_clocks=4)

        def proc():
            yield from arbiter.acquire("p")
            yield from arbiter.acquire("p")

        sim.add_process("p", proc())
        with pytest.raises(SimulationError,
                           match="p issued a nested bus acquire"):
            sim.run()
        assert sim.now == 0

    def test_validation(self):
        with pytest.raises(ArbitrationError):
            TdmaArbiter(Simulator(), [], 4)
        with pytest.raises(ArbitrationError):
            TdmaArbiter(Simulator(), ["a"], 0)
