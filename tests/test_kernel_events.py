"""Event-driven kernel: sensitivity lists, timer heap, determinism.

Three concerns:

* the ``WaitOn`` / ``EventBus`` machinery itself (wake ordering, timer
  heap ties, daemon-only termination, deadlock reporting);
* **no polling**: predicate evaluation counts scale with signal
  *changes*, not clocks x processes;
* **determinism**: the event-driven kernel reproduces, byte for byte,
  the transaction logs, ``SimStats`` and kernel counters the seed
  (polling fixpoint) kernel produced on the three paper systems
  (goldens under ``tests/data/``).
"""

import pytest

from repro.errors import DeadlockError
from repro.sim.kernel import Delta, Simulator, Wait, WaitOn
from repro.sim.signals import DataLines, Signal

from tests import golden_util


class TestWaitOn:
    def test_wakes_on_watched_signal_change(self):
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

    def test_no_predicate_means_any_change(self):
        flag = Signal("flag")
        times = {}

        def setter():
            yield Wait(2)
            flag.set(7)

        def waiter(sim):
            yield WaitOn(flag)
            times["woke"] = sim.now

        sim = Simulator()
        sim.add_process("waiter", waiter(sim))
        sim.add_process("setter", setter())
        sim.run()
        assert times["woke"] == 2

    def test_already_true_predicate_fires_without_a_change(self):
        """A WaitOn predicate that is already true at yield time
        resumes in the next pass even though no watched signal ever
        changes again."""
        flag = Signal("flag", init=1)

        def proc():
            yield WaitOn(flag, lambda: flag.value == 1)

        sim = Simulator()
        sim.add_process("p", proc())
        assert sim.run().end_time == 0

    def test_unrelated_change_does_not_wake(self):
        watched = Signal("watched")
        other = Signal("other")
        log = []

        def noisy():
            for _ in range(5):
                other.set(other.value + 1)
                yield Wait(1)
            watched.set(1)

        def waiter(sim):
            yield WaitOn(watched, lambda: watched.value == 1)
            log.append(sim.now)

        sim = Simulator()
        sim.add_process("noisy", noisy())
        sim.add_process("waiter", waiter(sim))
        sim.run()
        assert log == [5]

    def test_multi_signal_sensitivity(self):
        a = Signal("a")
        b = Signal("b")
        times = {}

        def seta():
            yield Wait(1)
            a.set(1)

        def setb():
            yield Wait(4)
            b.set(1)

        def waiter(sim):
            yield WaitOn((a, b), lambda: a.value and b.value)
            times["woke"] = sim.now

        sim = Simulator()
        sim.add_process("seta", seta())
        sim.add_process("setb", setb())
        sim.add_process("waiter", waiter(sim))
        sim.run()
        assert times["woke"] == 4

    def test_datalines_is_watchable(self):
        data = DataLines("DATA", width=8)
        seen = []

        def driver():
            yield Wait(2)
            data.drive("accessor", 0x0f, 0x0f)

        def watcher(sim):
            yield WaitOn(data, lambda: data.value == 0x0f)
            seen.append(sim.now)

        sim = Simulator()
        sim.add_process("driver", driver())
        sim.add_process("watcher", watcher(sim))
        sim.run()
        assert seen == [2]

    def test_non_watchable_rejected(self):
        from repro.errors import SimulationError
        with pytest.raises(SimulationError, match="watchable"):
            WaitOn(object())

    def test_empty_sensitivity_rejected(self):
        from repro.errors import SimulationError
        with pytest.raises(SimulationError, match="at least one"):
            WaitOn(())


class TestWakeOrdering:
    def test_same_pass_wake_for_later_registered_process(self):
        """A process registered after the setter wakes in the same pass
        (it had not had its turn yet), matching the polling kernel's
        sweep discipline."""
        flag = Signal("flag")
        log = []

        def setter():
            log.append("set")
            flag.set(1)
            yield Wait(1)

        def waiter():
            yield WaitOn(flag, lambda: flag.value == 1)
            log.append("woke")
            yield Wait(2)

        sim = Simulator()
        sim.add_process("setter", setter())
        sim.add_process("waiter", waiter())
        metricsless = sim.run()
        assert log == ["set", "woke"]
        assert metricsless.end_time == 2

    def test_earlier_registered_waiter_wakes_next_pass_same_clock(self):
        flag = Signal("flag")
        order = []

        def waiter(sim):
            yield WaitOn(flag, lambda: flag.value == 1)
            order.append(("waiter", sim.now))

        def setter(sim):
            yield Wait(2)
            flag.set(1)
            order.append(("setter", sim.now))
            yield Wait(1)

        sim = Simulator()
        sim.add_process("waiter", waiter(sim))
        sim.add_process("setter", setter(sim))
        sim.run()
        # Both at clock 2; the setter's pass completes first.
        assert order == [("setter", 2), ("waiter", 2)]

    def test_simultaneous_wakes_run_in_registration_order(self):
        flag = Signal("flag")
        order = []

        def waiter(name):
            yield WaitOn(flag, lambda: flag.value == 1)
            order.append(name)

        def setter():
            yield Wait(1)
            flag.set(1)

        sim = Simulator()
        # Register waiters out of alphabetical order on purpose.
        sim.add_process("w2", waiter("w2"))
        sim.add_process("w1", waiter("w1"))
        sim.add_process("setter", setter())
        sim.run()
        assert order == ["w2", "w1"]


class TestTimerHeap:
    def test_timer_ties_resolve_in_registration_order(self):
        log = []

        def proc(name, first, second):
            yield Wait(first)
            log.append((name, "a"))
            yield Wait(second)
            log.append((name, "b"))

        sim = Simulator()
        # Different paths to the same wake clocks; ties must break by
        # registration order, not insertion history.
        sim.add_process("late", proc("late", 4, 2))
        sim.add_process("early", proc("early", 2, 4))
        sim.run()
        assert log == [("early", "a"), ("late", "a"),
                       ("late", "b"), ("early", "b")]

    def test_heap_advances_to_earliest_wake(self):
        times = []

        def sleeper(sim, n):
            yield Wait(n)
            times.append(sim.now)

        sim = Simulator()
        for n in (70, 10, 40):
            sim.add_process(f"s{n}", sleeper(sim, n))
        stats = sim.run()
        assert times == [10, 40, 70]
        assert stats.end_time == 70

    def test_daemon_only_simulation_terminates_at_zero(self):
        def server():
            while True:
                yield Wait(1)

        sim = Simulator()
        sim.add_process("server", server(), daemon=True)
        sim.add_process("server2", server(), daemon=True)
        assert sim.run().end_time == 0

    def test_daemon_blocked_on_waiton_does_not_deadlock(self):
        flag = Signal("flag")

        def server():
            while True:
                yield WaitOn(flag, lambda: flag.value == 1)
                flag.set(0)

        def worker():
            yield Wait(3)

        sim = Simulator()
        sim.add_process("server", server(), daemon=True)
        sim.add_process("worker", worker())
        assert sim.run().end_time == 3


class TestNoPolling:
    """The acceptance check: predicate evaluations scale with signal
    changes, not with clocks x processes."""

    def test_predicate_evals_scale_with_changes_not_clocks(self):
        flag = Signal("flag")
        evals = {"n": 0}

        def predicate():
            evals["n"] += 1
            return flag.value == 1

        def waiter():
            yield WaitOn(flag, predicate)

        def slow_setter():
            # 1000 clocks of unrelated timer activity, then one change.
            for _ in range(1000):
                yield Wait(1)
            flag.set(1)
            yield Wait(1)

        sim = Simulator()
        sim.add_process("waiter", waiter())
        sim.add_process("setter", slow_setter())
        sim.run()
        # One evaluation at registration plus one per watched-signal
        # change -- not one per clock (the polling kernel would have
        # made ~1000).
        assert evals["n"] <= 2
        assert sim.predicate_evals <= 2
        assert sim.signal_wakeups == 1

    def test_idle_watchers_cost_nothing_per_clock(self):
        """Many blocked watchers must not add per-clock work: kernel
        predicate evaluations stay flat as blocked processes are
        added."""
        def busy():
            for _ in range(200):
                yield Wait(1)

        def blocked(signal):
            yield WaitOn(signal, lambda: signal.value == 1)
            raise AssertionError("never woken")

        def run(n_blocked):
            sim = Simulator()
            sim.add_process("busy", busy())
            for i in range(n_blocked):
                signal = Signal(f"s{i}")
                sim.add_process(f"b{i}", blocked(signal), daemon=True)
            sim.run()
            return sim.predicate_evals

        # One registration-time evaluation each; nothing per clock.
        assert run(50) - run(5) == 45


class TestDeadlockReport:
    def test_reports_reason_per_process(self):
        flag = Signal("flag")

        def stuck_on_signal():
            yield WaitOn(flag, lambda: flag.value == 1)

        other = Signal("other")

        def stuck_on_any_change():
            yield WaitOn(other)

        sim = Simulator()
        sim.add_process("sig_waiter", stuck_on_signal())
        sim.add_process("any_waiter", stuck_on_any_change())
        with pytest.raises(DeadlockError) as excinfo:
            sim.run()
        message = str(excinfo.value)
        assert "sig_waiter" in message
        assert "[flag]" in message         # names the watched signal
        assert "WaitOn" in message
        assert "any_waiter" in message
        assert "[other]" in message

    def test_lists_daemons_separately(self):
        flag = Signal("flag")
        done = Signal("done")

        def stuck():
            yield WaitOn(done, lambda: done.value == 1)

        def daemon_server():
            yield WaitOn(flag, lambda: flag.value == 1)

        sim = Simulator()
        sim.add_process("worker", stuck())
        sim.add_process("variable_server", daemon_server(), daemon=True)
        with pytest.raises(DeadlockError) as excinfo:
            sim.run()
        message = str(excinfo.value)
        assert "daemons" in message
        assert "variable_server" in message
        # The worker is reported before the daemon section.
        assert message.index("worker") < message.index("daemons")


class TestMixedRequests:
    def test_delta_and_waiton_interleave(self):
        flag = Signal("flag")
        log = []

        def deltaist():
            log.append("d1")
            yield Delta()
            log.append("d2")
            flag.set(1)
            yield Delta()
            log.append("d3")

        def waiter():
            yield WaitOn(flag, lambda: flag.value == 1)
            log.append("woke")

        sim = Simulator()
        sim.add_process("deltaist", deltaist())
        sim.add_process("waiter", waiter())
        sim.run()
        assert log == ["d1", "d2", "woke", "d3"]

    def test_rewaiting_on_same_signal(self):
        strobe = Signal("strobe")
        seen = []

        def producer():
            for i in range(1, 4):
                yield Wait(2)
                strobe.set(i)

        def consumer(sim):
            last = strobe.value
            while len(seen) < 3:
                yield WaitOn(strobe, lambda: strobe.value != last)
                last = strobe.value
                seen.append((sim.now, last))

        sim = Simulator()
        sim.add_process("producer", producer())
        sim.add_process("consumer", consumer(sim))
        sim.run()
        assert seen == [(2, 1), (4, 2), (6, 3)]


@pytest.mark.parametrize("slug", golden_util.GOLDEN_SYSTEMS)
class TestDeterminism:
    """Byte-identical replay of the seed kernel's golden runs."""

    def test_matches_seed_golden(self, slug):
        fresh = golden_util.capture_system(slug)
        golden = golden_util.load_golden(slug)
        assert golden_util.dump(fresh) == golden_util.dump(golden), (
            f"{slug}: event-driven kernel diverged from the seed "
            "kernel's golden run; regenerate goldens ONLY if the "
            "observable change is intentional "
            "(PYTHONPATH=src python -m tests.golden_util)"
        )

    def test_oracle_still_ok(self, slug):
        assert golden_util.load_golden(slug)["oracle_ok"] is True
