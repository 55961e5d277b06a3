"""Flight-recorder overhead: the price of "always attachable".

The recorder's design claim is two-sided:

* **detached is free**: every hook in the kernel/bus/arbiter/fault
  layers sits behind one ``is not None`` pointer test, and the kernel
  itself only touches the recorder once per *run* (``on_kernel_end``),
  never per clock.  An attached recorder on a raw-kernel workload
  (no bus, so no hook ever fires in the loop) must therefore cost
  under 3% -- the same bound the committed ``BENCH_kernel_scaling``
  baselines enforce across versions for the detached hook sites.
* **attached is bounded**: with the full bus instrumentation firing
  (FLC, 256 messages: per-word data/handshake marks, journal events,
  arbitration hooks), the attached run's wall-time ratio is recorded
  as a committed, diffable number and sanity-bounded.

Both measurements are *paired in-process* (interleaved best-of-N of
the two variants in the same interpreter), so the gate measures the
recorder, not the CI machine.  Wall time still carries host noise, so
the "detached is free" claim is also checked by a count that cannot
drift: under ``cProfile`` an attached recorder adds no call anywhere in
the simulator, and its own calls per run do not grow with the workload.

Writes ``benchmarks/reports/flight_overhead.txt`` and
``BENCH_flight_overhead.json`` (consumed by the CI regression gate).
"""

import cProfile
import pstats
import time

from benchmarks._report import format_table, write_json_report, write_report
from repro.apps.flc import build_flc, reference_ctrl_output
from repro.busgen.algorithm import generate_bus
from repro.obs.flight import FlightRecorder
from repro.protogen.refine import refine_system
from repro.sim.kernel import Simulator, Wait, WaitOn
from repro.sim.runtime import simulate
from repro.sim.signals import Signal

#: Messages moved by the raw-kernel handshake workload.
KERNEL_MESSAGES = 6000
#: Words per message (2 simulated clocks per word).
KERNEL_WORDS = 8
#: Interleaved repetitions per variant; best-of wall time is compared.
REPEATS = 7
#: Repetitions of the kernel-level pair: its 3% gate sits close to
#: host noise, so it takes more samples before the best-of.
KERNEL_REPEATS = 15
#: Messages of the profiled kernel runs (call counts need no size).
PROFILE_MESSAGES = 50
#: Detached/kernel-level gate: the recorder must stay under +3%.
KERNEL_GATE = 1.03
#: Attached full-instrumentation sanity bound (informative ratio is
#: the committed number; the bound only catches pathological cost).
ATTACHED_BOUND = 3.0


def _run_handshake(recorder=None, messages=KERNEL_MESSAGES):
    """The ``bench_kernel_scaling`` producer/consumer pair: a pure
    kernel workload where no recorder hook sits on the hot path."""
    start = Signal("START")
    done = Signal("DONE")
    data = Signal("DATA")

    def producer():
        for message in range(messages):
            for word in range(KERNEL_WORDS):
                data.set((message + word + 1) & 0xFFFF)
                start.set(1)
                yield Wait(1)
                assert done.value == 1
                start.set(0)
                yield Wait(1)
                assert done.value == 0

    def consumer():
        received = 0
        total = messages * KERNEL_WORDS
        while received < total:
            yield WaitOn(start, lambda: start.value == 1)
            received += 1
            done.set(1)
            yield WaitOn(start, lambda: start.value == 0)
            done.set(0)

    sim = Simulator(recorder=recorder)
    sim.add_process("consumer", consumer(), daemon=True)
    sim.add_process("producer", producer())
    started = time.perf_counter()
    stats = sim.run()
    wall = time.perf_counter() - started
    return wall, stats.end_time


def _run_flc(recorder=None):
    """The fully instrumented path: every bus/arbiter hook live."""
    model = build_flc(250, 180)
    design = generate_bus(model.bus_b)
    refined = refine_system(model.system, [design])
    started = time.perf_counter()
    result = simulate(refined, schedule=model.schedule,
                      recorder=recorder)
    wall = time.perf_counter() - started
    assert result.final_values["ctrl_out"] == reference_ctrl_output(
        250, 180)
    return wall, result


def _paired_best_of(fn, make_recorder, repeats=REPEATS):
    """Interleave plain and recorder-attached runs; return the best
    wall of each plus the last attached payload."""
    best_plain = best_attached = None
    payload = None
    for _ in range(repeats):
        plain = fn(None)
        recorder = make_recorder()
        attached = fn(recorder)
        if best_plain is None or plain[0] < best_plain[0]:
            best_plain = plain
        if best_attached is None or attached[0] < best_attached[0]:
            best_attached = attached
            payload = recorder
    return best_plain, best_attached, payload


def _call_counts(recorder, messages):
    """Profiled kernel run: ``(calls per simulator function, total
    calls into the flight recorder package)``."""
    profile = cProfile.Profile()
    profile.enable()
    _run_handshake(recorder, messages)
    profile.disable()
    simulator, recorder_calls = {}, 0
    for (filename, line, name), row in pstats.Stats(profile).stats.items():
        path = filename.replace("\\", "/")
        if "/repro/obs/flight/" in path:
            recorder_calls += row[1]
        elif "/repro/sim/" in path:
            simulator[(path, line, name)] = row[1]
    return simulator, recorder_calls


_SECTIONS = {}


def test_recorder_adds_no_calls_on_the_kernel_hot_path():
    """Host-independent form of the 3% gate: attaching the recorder
    changes no simulator call count, and the recorder's own calls are
    a per-run constant, not a per-clock cost."""
    plain, _ = _call_counts(None, PROFILE_MESSAGES)
    attached, small = _call_counts(FlightRecorder(), PROFILE_MESSAGES)
    _, large = _call_counts(FlightRecorder(), 2 * PROFILE_MESSAGES)
    assert plain and attached == plain
    assert 0 < small == large


def test_kernel_level_recorder_is_under_three_percent():
    """An attached recorder off the hot path costs < 3% wall time."""
    plain, attached, recorder = _paired_best_of(
        _run_handshake, FlightRecorder, KERNEL_REPEATS)
    assert plain[1] == attached[1], "recorder changed the schedule"
    assert recorder.end_clock == attached[1]
    # No bus in this workload: the journal must stay empty.
    assert recorder.events == []
    ratio = attached[0] / plain[0]
    assert ratio < KERNEL_GATE, (
        f"kernel-level recorder overhead {ratio:.3f}x exceeds the "
        f"{KERNEL_GATE}x gate (plain {plain[0]:.4f}s, attached "
        f"{attached[0]:.4f}s)")

    _SECTIONS["kernel_level"] = {
        "sim_clocks": plain[1],
        "wall_seconds_plain": round(plain[0], 4),
        "wall_seconds_attached": round(attached[0], 4),
        "overhead_ratio": round(ratio, 4),
        "gate": KERNEL_GATE,
    }
    lines = [f"Flight recorder, kernel-level workload "
             f"({KERNEL_MESSAGES} messages x {KERNEL_WORDS} words, "
             f"best of {KERNEL_REPEATS}):", ""]
    lines += format_table(
        ["variant", "wall s", "clocks"],
        [["detached", round(plain[0], 4), plain[1]],
         ["attached", round(attached[0], 4), attached[1]],
         ["ratio", round(ratio, 4), ""]])
    _SECTIONS.setdefault("_lines", []).extend(lines + [""])


def test_fully_instrumented_ratio_is_recorded():
    """FLC with every hook firing: the attached ratio is a committed
    number, and attaching never perturbs the simulated schedule."""
    plain, attached, recorder = _paired_best_of(_run_flc,
                                                FlightRecorder)
    assert plain[1].end_time == attached[1].end_time
    assert len(recorder.transactions) == len(
        attached[1].transactions["B"])
    assert recorder.events, "instrumented run must journal events"
    for txn in recorder.transactions:
        assert sum(txn.buckets.values()) == txn.latency_clocks
    ratio = attached[0] / plain[0]
    assert ratio < ATTACHED_BOUND, (
        f"attached instrumentation ratio {ratio:.3f}x is pathological")

    _SECTIONS["fully_instrumented"] = {
        "sim_clocks": plain[1].end_time,
        "transactions": len(recorder.transactions),
        "journal_events": len(recorder.events),
        # Deliberately NOT wall_seconds-prefixed: a single FLC run is
        # tens of milliseconds and too noisy for the cross-run wall
        # gate; the committed number of record is the paired ratio.
        "seconds_plain": round(plain[0], 4),
        "seconds_attached": round(attached[0], 4),
        "attached_ratio": round(ratio, 4),
    }
    lines = ["Flight recorder, fully instrumented FLC run "
             f"(256 messages, best of {REPEATS}):", ""]
    lines += format_table(
        ["variant", "wall s", "clocks", "journal"],
        [["detached", round(plain[0], 4), plain[1].end_time, 0],
         ["attached", round(attached[0], 4), attached[1].end_time,
          len(recorder.events)],
         ["ratio", round(ratio, 4), "", ""]])
    _SECTIONS.setdefault("_lines", []).extend(lines)


def test_zz_write_reports():
    lines = _SECTIONS.pop("_lines", ["(measurements did not run)"])
    write_report("flight_overhead", lines)
    write_json_report("flight_overhead", _SECTIONS)
