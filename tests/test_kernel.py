"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim.kernel import Delta, Simulator, Wait, WaitOn
from repro.sim.signals import Signal


class TestBasics:
    def test_single_process_runs_to_completion(self):
        log = []

        def proc():
            log.append("a")
            yield Wait(5)
            log.append("b")

        sim = Simulator()
        sim.add_process("p", proc())
        stats = sim.run()
        assert log == ["a", "b"]
        assert stats.end_time == 5
        assert stats.clocks("p") == 5

    def test_wait_accumulates(self):
        def proc():
            yield Wait(3)
            yield Wait(4)

        sim = Simulator()
        sim.add_process("p", proc())
        assert sim.run().end_time == 7

    def test_two_processes_interleave_deterministically(self):
        log = []

        def proc(name, delay):
            log.append((name, 0))
            yield Wait(delay)
            log.append((name, delay))

        sim = Simulator()
        sim.add_process("a", proc("a", 2))
        sim.add_process("b", proc("b", 1))
        sim.run()
        assert log == [("a", 0), ("b", 0), ("b", 1), ("a", 2)]

    def test_wait_requires_positive_int(self):
        with pytest.raises(SimulationError):
            Wait(0)
        with pytest.raises(SimulationError):
            Wait(1.5)

    def test_non_generator_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="generator"):
            sim.add_process("p", lambda: None)

    def test_duplicate_names_rejected(self):
        def proc():
            yield Wait(1)

        sim = Simulator()
        sim.add_process("p", proc())
        with pytest.raises(SimulationError):
            sim.add_process("p", proc())


class TestWaitUntil:
    """Waiting until a signal condition holds (``WaitOn`` with a
    predicate)."""

    def test_wakes_within_same_clock(self):
        """A condition made true by another process runs the waiter in
        the same clock (delta semantics)."""
        flag = Signal("flag")
        times = {}

        def setter():
            yield Wait(3)
            flag.set(1)

        def waiter(sim):
            yield WaitOn(flag, lambda: flag.value == 1)
            times["woke"] = sim.now

        sim = Simulator()
        sim.add_process("setter", setter())
        sim.add_process("waiter", waiter(sim))
        sim.run()
        assert times["woke"] == 3

    def test_immediately_true_condition(self):
        flag = Signal("flag", init=1)

        def proc():
            yield WaitOn(flag, lambda: flag.value == 1)

        sim = Simulator()
        sim.add_process("p", proc())
        assert sim.run().end_time == 0

    def test_order_independence_of_registration(self):
        """Waiter before setter also wakes in the same clock."""
        flag = Signal("flag")
        times = {}

        def waiter(sim):
            yield WaitOn(flag, lambda: flag.value == 1)
            times["woke"] = sim.now

        def setter():
            yield Wait(2)
            flag.set(1)

        sim = Simulator()
        sim.add_process("waiter", waiter(sim))
        sim.add_process("setter", setter())
        sim.run()
        assert times["woke"] == 2


class TestDelta:
    def test_delta_runs_after_other_processes_same_clock(self):
        log = []

        def first():
            log.append("first-pass1")
            yield Delta()
            log.append("first-pass2")

        def second():
            log.append("second-pass1")
            yield Wait(1)

        sim = Simulator()
        sim.add_process("first", first())
        sim.add_process("second", second())
        sim.run()
        assert log.index("first-pass2") > log.index("second-pass1")

    def test_delta_does_not_advance_time(self):
        times = []

        def proc(sim):
            times.append(sim.now)
            yield Delta()
            times.append(sim.now)

        sim = Simulator()
        sim.add_process("p", proc(sim))
        sim.run()
        assert times == [0, 0]

    def test_infinite_delta_loop_detected(self):
        def spinner():
            while True:
                yield Delta()

        sim = Simulator(max_passes_per_clock=50)
        sim.add_process("p", spinner())
        with pytest.raises(SimulationError, match="passes"):
            sim.run()


class TestDaemons:
    def test_daemons_do_not_keep_simulation_alive(self):
        def server():
            while True:
                yield Wait(1)

        def worker():
            yield Wait(5)

        sim = Simulator()
        sim.add_process("server", server(), daemon=True)
        sim.add_process("worker", worker())
        stats = sim.run()
        assert stats.end_time == 5
        assert not stats.processes["server"].finished
        assert stats.processes["worker"].finished

    def test_daemon_only_simulation_ends_immediately(self):
        def server():
            while True:
                yield Wait(1)

        sim = Simulator()
        sim.add_process("server", server(), daemon=True)
        assert sim.run().end_time == 0


class TestErrors:
    def test_deadlock_detected(self):
        flag = Signal("flag")

        def stuck():
            yield WaitOn(flag, lambda: flag.value == 1)

        sim = Simulator()
        sim.add_process("stuck", stuck())
        with pytest.raises(DeadlockError, match="stuck"):
            sim.run()

    def test_max_clocks_exceeded(self):
        def forever():
            while True:
                yield Wait(100)

        sim = Simulator(max_clocks=500)
        sim.add_process("p", forever())
        with pytest.raises(SimulationError, match="max_clocks"):
            sim.run()

    def test_process_exception_wrapped(self):
        def broken():
            yield Wait(1)
            raise ValueError("boom")

        sim = Simulator()
        sim.add_process("broken", broken())
        with pytest.raises(SimulationError, match="broken"):
            sim.run()

    def test_bad_yield_value(self):
        def wrong():
            yield 42

        sim = Simulator()
        sim.add_process("wrong", wrong())
        with pytest.raises(SimulationError, match="expected"):
            sim.run()

    def test_never_started_stats(self):
        def instant():
            return
            yield  # pragma: no cover

        sim = Simulator()
        sim.add_process("p", instant())
        stats = sim.run()
        assert stats.processes["p"].finished
