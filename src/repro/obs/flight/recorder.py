"""The causal flight recorder: a journal of typed protocol events.

The bus and arbiter folds of :mod:`repro.sim.analysis` answer *how
much* -- transactions, words, histograms.  The flight recorder answers
*why*: it journals every step of every message transfer as a typed
:class:`FlightEvent` (channel request, arbiter grant, handshake phase
edges, word transfers, CHECK/NACK verdicts, retries, commit or
give-up), all linked by a **correlation id** so a bus
:class:`~repro.sim.bus.Transaction`, the
:class:`~repro.sim.faults.FaultRecord` that perturbed it and a model-
checker witness replay resolve to one causal chain.

On top of the journal it keeps exact **clock attribution**: every
simulated clock of every transaction lands in exactly one bucket
(:data:`BUCKETS`).  Accounting is mark-based -- each instrumentation
point attributes the clocks elapsed since the previous mark to one
bucket -- so the buckets partition ``[request, end]`` and sum *exactly*
to the transaction's latency, by construction rather than by estimate.
The property test suite asserts this invariant under faults and
retries.

Bucket semantics:

* ``arbitration_wait`` -- request to bus grant (queueing + grant delay
  + TDMA slot waits);
* ``handshake`` -- control-line overhead: the return-to-zero half of
  each full-handshake word, burst setup/release clocks;
* ``data`` -- clocks in which payload words actually moved;
* ``protection`` -- the extra bus words the CHECK field appends to the
  message (both halves of each extra word), i.e. what the unprotected
  layout would not have paid;
* ``recovery`` -- everything a fault cost: timeout waits, all clocks
  of failed attempts (retroactively reassigned when the attempt
  fails), and the retransmission resync window;
* ``idle`` -- clocks inside the transaction window not covered by the
  above (zero for committed transfers; the run-level idle between
  transactions is surfaced by the critical path instead).

The recorder is attached with ``simulate(..., recorder=
FlightRecorder())``.  Its hooks are the simulator's only per-event
observers besides the kernel counters: each recorder call in the
kernel, the bus and arbiter coroutines and the fault injector sits
behind an ``is not None`` guard, so a run without a recorder pays one
pointer test per site.  The compiled backend has two transfer tiers:
its fused transfers have no hooks at all, and an attached recorder
keeps a bus off that tier
(:func:`repro.sim.compiled.transfer.plan_channel`), so every observed
transfer runs :meth:`repro.sim.bus.SimBus.accessor_transfer` on either
backend.  Either way the golden transaction logs stay byte-identical.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

#: Exclusive clock-attribution buckets, in display order.
BUCKETS = ("arbitration_wait", "handshake", "data", "protection",
           "recovery", "idle")

# -- journal event kinds ----------------------------------------------------

REQUEST = "REQUEST"              #: initiator asked the arbiter for the bus
GRANT = "GRANT"                  #: arbiter granted the bus
TRANSFER_START = "TRANSFER_START"  #: accessor began moving the message
WORD_START = "WORD_START"        #: START raised (or strobe armed) for a word
WORD_DATA = "WORD_DATA"          #: data phase of a word completed
WORD_DONE = "WORD_DONE"          #: return-to-zero handshake half completed
SETUP = "SETUP"                  #: burst grant handshake completed
RELEASE = "RELEASE"              #: burst release handshake completed
CHECK_FAIL = "CHECK_FAIL"        #: accessor-side response check mismatched
NACK = "NACK"                    #: server NACKed a protected write
RETRY = "RETRY"                  #: attempt failed; retransmission scheduled
COMMIT = "COMMIT"                #: transfer committed
GIVE_UP = "GIVE_UP"              #: retry budget exhausted
FAULT = "FAULT"                  #: the injector perturbed a wire
DEADLOCK = "DEADLOCK"            #: kernel declared a deadlock
REPLAY_START = "REPLAY_START"    #: mc witness replay began
REPLAY_END = "REPLAY_END"        #: mc witness replay finished

#: Every journal kind, for validation and the docs catalogue.
EVENT_KINDS = (
    REQUEST, GRANT, TRANSFER_START, WORD_START, WORD_DATA, WORD_DONE,
    SETUP, RELEASE, CHECK_FAIL, NACK, RETRY, COMMIT, GIVE_UP, FAULT,
    DEADLOCK, REPLAY_START, REPLAY_END,
)


class FlightEvent:
    """One journal entry.  ``correlation_id`` links it to its chain."""

    __slots__ = ("seq", "clock", "kind", "correlation_id", "bus",
                 "detail")

    def __init__(self, seq: int, clock: int, kind: str,
                 correlation_id: int, bus: str, detail: str = ""):
        self.seq = seq
        self.clock = clock
        self.kind = kind
        self.correlation_id = correlation_id
        self.bus = bus
        self.detail = detail

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "seq": self.seq, "clock": self.clock, "kind": self.kind,
            "correlation_id": self.correlation_id, "bus": self.bus,
        }
        if self.detail:
            payload["detail"] = self.detail
        return payload

    def __repr__(self) -> str:
        return (f"FlightEvent(#{self.seq} t={self.clock} {self.kind} "
                f"cid={self.correlation_id} {self.bus} {self.detail})")


class FlightTransaction:
    """Causal record of one message transfer, open or closed.

    ``segments`` is the exact tiling of ``[request_clock, end_clock]``
    as ``[start, end, bucket]`` triples; ``buckets`` (filled at close)
    is the per-bucket clock total.  ``sum(buckets.values()) ==
    latency_clocks`` always.
    """

    __slots__ = ("correlation_id", "bus", "initiator", "channel",
                 "direction", "request_clock", "grant_clock",
                 "start_clock", "end_clock", "words",
                 "extra_check_words", "retries", "outcome", "segments",
                 "buckets", "_last", "_attempt_mark")

    def __init__(self, correlation_id: int, bus: str, initiator: str,
                 clock: int):
        self.correlation_id = correlation_id
        self.bus = bus
        self.initiator = initiator
        self.channel: Optional[str] = None
        self.direction: Optional[str] = None
        self.request_clock = clock
        self.grant_clock = clock
        self.start_clock = clock
        self.end_clock: Optional[int] = None
        self.words = 0
        self.extra_check_words = 0
        self.retries = 0
        #: "committed", "gave_up", or "incomplete" (run ended first).
        self.outcome = "open"
        self.segments: List[List[Any]] = []
        self.buckets: Dict[str, int] = {}
        #: Clock of the most recent attribution mark.
        self._last = clock
        #: Segment index where the current protected attempt began.
        self._attempt_mark = 0

    @property
    def latency_clocks(self) -> int:
        end = self.end_clock if self.end_clock is not None else self._last
        return end - self.request_clock

    def to_dict(self) -> Dict[str, Any]:
        return {
            "correlation_id": self.correlation_id,
            "bus": self.bus,
            "channel": self.channel,
            "initiator": self.initiator,
            "direction": self.direction,
            "request_clock": self.request_clock,
            "grant_clock": self.grant_clock,
            "end_clock": self.end_clock,
            "latency_clocks": self.latency_clocks,
            "words": self.words,
            "retries": self.retries,
            "outcome": self.outcome,
            "buckets": dict(self.buckets),
            "segments": [[s, e, b] for s, e, b in self.segments],
        }


class FlightRecorder:
    """Always-attachable journal + exact clock-attribution engine.

    One instance records one simulation run (plus any witness replays
    correlated with it).  All hooks take the simulated clock explicitly
    so the recorder never reaches back into the kernel.
    """

    def __init__(self) -> None:
        self.events: List[FlightEvent] = []
        #: Closed transactions, in completion order.
        self.transactions: List[FlightTransaction] = []
        #: Final simulated clock of the run (set by the kernel/runtime).
        self.end_clock = 0
        #: Correlation id of each injected fault, in injection order
        #: (parallel to ``SimResult.fault_records``).
        self.fault_correlations: List[int] = []
        #: One summary dict per witness replayed with this recorder.
        self.replays: List[Dict[str, Any]] = []
        self._open_by_initiator: Dict[str, FlightTransaction] = {}
        self._open_by_bus: Dict[str, FlightTransaction] = {}
        self._next_cid = 1
        self._seq = 0

    # -- journal helpers ----------------------------------------------

    def _alloc_cid(self) -> int:
        cid = self._next_cid
        self._next_cid += 1
        return cid

    def _event(self, clock: int, kind: str, correlation_id: int,
               bus: str, detail: str = "") -> None:
        self.events.append(FlightEvent(self._seq, clock, kind,
                                       correlation_id, bus, detail))
        self._seq += 1

    def correlation_ids(self) -> set:
        """Every correlation id present in the journal."""
        return {event.correlation_id for event in self.events}

    def events_for(self, correlation_id: int) -> List[FlightEvent]:
        return [e for e in self.events
                if e.correlation_id == correlation_id]

    # -- attribution core ---------------------------------------------

    def _mark(self, txn: FlightTransaction, clock: int, bucket: str,
              nominal: Optional[int] = None) -> None:
        """Attribute the clocks since the last mark to ``bucket``.

        With ``nominal``, only the *final* ``nominal`` clocks go to
        ``bucket``; any excess (a timeout-bounded wait that preceded
        completion) is fault recovery.
        """
        last = txn._last
        if clock <= last:
            return
        if nominal is not None and clock - last > nominal:
            split = clock - nominal
            txn.segments.append([last, split, "recovery"])
            last = split
        txn.segments.append([last, clock, bucket])
        txn._last = clock

    def _begin(self, bus: str, initiator: str,
               clock: int) -> FlightTransaction:
        txn = FlightTransaction(self._alloc_cid(), bus, initiator, clock)
        self._open_by_initiator[initiator] = txn
        return txn

    def _close(self, txn: FlightTransaction, clock: int,
               outcome: str) -> None:
        txn.end_clock = clock
        txn.outcome = outcome
        merged: List[List[Any]] = []
        for segment in txn.segments:
            if (merged and merged[-1][2] == segment[2]
                    and merged[-1][1] == segment[0]):
                merged[-1][1] = segment[1]
            else:
                merged.append(segment)
        txn.segments = merged
        buckets = {bucket: 0 for bucket in BUCKETS}
        for start, end, bucket in merged:
            buckets[bucket] += end - start
        txn.buckets = buckets
        self.transactions.append(txn)
        if self._open_by_initiator.get(txn.initiator) is txn:
            del self._open_by_initiator[txn.initiator]
        if self._open_by_bus.get(txn.bus) is txn:
            del self._open_by_bus[txn.bus]

    # -- arbitration hooks --------------------------------------------

    def on_request(self, bus: str, initiator: str, clock: int) -> None:
        txn = self._begin(bus, initiator, clock)
        self._event(clock, REQUEST, txn.correlation_id, bus, initiator)

    def on_grant(self, bus: str, initiator: str, clock: int) -> None:
        txn = self._open_by_initiator.get(initiator)
        if txn is None or txn.bus != bus:
            txn = self._begin(bus, initiator, clock)
        self._mark(txn, clock, "arbitration_wait")
        txn.grant_clock = clock
        self._event(clock, GRANT, txn.correlation_id, bus, initiator)

    # -- transfer hooks (called by SimBus) ----------------------------

    def on_transfer_start(self, bus: str, channel: str, initiator: str,
                          clock: int, words: int,
                          extra_check_words: int,
                          direction: str) -> FlightTransaction:
        txn = self._open_by_initiator.get(initiator)
        if txn is None or txn.bus != bus or txn.channel is not None:
            # Direct transfer without an instrumented arbiter.
            txn = self._begin(bus, initiator, clock)
        self._mark(txn, clock, "arbitration_wait")
        txn.channel = channel
        txn.direction = getattr(direction, "name", direction)
        txn.start_clock = clock
        txn.words = words
        txn.extra_check_words = extra_check_words
        self._open_by_bus[bus] = txn
        self._event(clock, TRANSFER_START, txn.correlation_id, bus,
                    f"{channel} {direction} {words} word(s)")
        return txn

    def on_word_start(self, txn: FlightTransaction, clock: int,
                      word: int) -> None:
        self._event(clock, WORD_START, txn.correlation_id, txn.bus,
                    f"word {word}")

    def on_data_phase(self, txn: FlightTransaction, clock: int,
                      word: int) -> None:
        self._mark(txn, clock, "data", nominal=1)
        self._event(clock, WORD_DATA, txn.correlation_id, txn.bus,
                    f"word {word}")

    def on_handshake_phase(self, txn: FlightTransaction, clock: int,
                           word: int) -> None:
        self._mark(txn, clock, "handshake", nominal=1)
        self._event(clock, WORD_DONE, txn.correlation_id, txn.bus,
                    f"word {word}")

    def on_setup(self, txn: FlightTransaction, clock: int) -> None:
        self._mark(txn, clock, "handshake", nominal=1)
        self._event(clock, SETUP, txn.correlation_id, txn.bus)

    def on_release(self, txn: FlightTransaction, clock: int) -> None:
        self._mark(txn, clock, "handshake", nominal=1)
        self._event(clock, RELEASE, txn.correlation_id, txn.bus)

    # -- protected-transfer hooks -------------------------------------

    def on_attempt_begin(self, txn: FlightTransaction,
                         clock: int) -> None:
        """A (re)transmission attempt starts; the resync window since
        the previous attempt failed is fault recovery."""
        self._mark(txn, clock, "recovery")
        txn._attempt_mark = len(txn.segments)

    def on_nack(self, txn: FlightTransaction, clock: int,
                detail: str) -> None:
        self._event(clock, NACK, txn.correlation_id, txn.bus, detail)

    def on_check_fail(self, txn: FlightTransaction, clock: int,
                      detail: str) -> None:
        self._event(clock, CHECK_FAIL, txn.correlation_id, txn.bus,
                    detail)

    def _fail_attempt(self, txn: FlightTransaction, clock: int) -> None:
        """Everything the failed attempt spent becomes recovery."""
        self._mark(txn, clock, "recovery")
        for segment in txn.segments[txn._attempt_mark:]:
            segment[2] = "recovery"

    def on_attempt_failed(self, txn: FlightTransaction, clock: int,
                          reason: str, retries: int) -> None:
        self._fail_attempt(txn, clock)
        txn.retries = retries
        self._event(clock, RETRY, txn.correlation_id, txn.bus, reason)

    # -- completion hooks ---------------------------------------------

    def on_commit(self, txn: FlightTransaction, clock: int,
                  retries: int) -> None:
        self._mark(txn, clock, "idle")
        txn.retries = retries
        if txn.extra_check_words:
            self._relabel_protection(txn)
        self._event(clock, COMMIT, txn.correlation_id, txn.bus,
                    f"retries={retries}")
        self._close(txn, clock, "committed")

    def on_giveup(self, txn: FlightTransaction, clock: int, reason: str,
                  retries: int) -> None:
        self._fail_attempt(txn, clock)
        txn.retries = retries
        self._event(clock, GIVE_UP, txn.correlation_id, txn.bus, reason)
        self._close(txn, clock, "gave_up")

    def _relabel_protection(self, txn: FlightTransaction) -> None:
        """Move the CHECK field's extra words into the protection
        bucket.

        The check field appends ``extra_check_words`` whole words to
        the message; each cost one data clock and one handshake clock
        on the (successful) final attempt.  Walking the segments
        backwards relabels exactly those -- failed attempts are already
        recovery and are skipped by bucket mismatch.
        """
        need_data = need_handshake = txn.extra_check_words
        for segment in reversed(txn.segments):
            if not need_data and not need_handshake:
                break
            if need_data and segment[2] == "data":
                segment[2] = "protection"
                need_data -= 1
            elif need_handshake and segment[2] == "handshake":
                segment[2] = "protection"
                need_handshake -= 1

    # -- fault / kernel hooks -----------------------------------------

    def on_fault(self, record: Any) -> None:
        """Correlate an injected fault with the transfer it hit.

        A fault landing outside any open transfer (e.g. a STUCK window
        armed on an idle bus) gets a fresh correlation id, so *every*
        :class:`~repro.sim.faults.FaultRecord` resolves to a chain in
        the journal.
        """
        txn = self._open_by_bus.get(record.bus)
        cid = txn.correlation_id if txn is not None else self._alloc_cid()
        self.fault_correlations.append(cid)
        kind = getattr(record.kind, "value", str(record.kind))
        self._event(record.clock, FAULT, cid, record.bus,
                    f"{kind} on {record.line}: {record.detail}")

    def on_deadlock(self, clock: int, blocked: int) -> None:
        self._event(clock, DEADLOCK, 0, "",
                    f"{blocked} process(es) blocked with no timer "
                    "pending")
        self.end_clock = max(self.end_clock, clock)

    def on_kernel_end(self, clock: int) -> None:
        self.end_clock = max(self.end_clock, clock)

    def finish(self, end_clock: int) -> None:
        """Seal the run: record the final clock and close any transfer
        the run ended around (outcome ``incomplete``)."""
        self.end_clock = max(self.end_clock, end_clock)
        for txn in list(self._open_by_initiator.values()):
            self._mark(txn, self.end_clock, "recovery")
            self._close(txn, max(txn._last, txn.request_clock),
                        "incomplete")

    # -- witness replay hooks -----------------------------------------

    def on_replay_begin(self, witness: Any) -> int:
        cid = self._alloc_cid()
        detail = (f"{getattr(witness, 'property_id', '?')} "
                  f"[{getattr(witness, 'code', '?')}] "
                  f"{witness.claim.get('type', '?')}")
        self._event(0, REPLAY_START, cid,
                    getattr(witness, "bus", ""), detail)
        return cid

    def on_replay_end(self, correlation_id: int, clocks: int,
                      confirmed: bool, claim: str) -> None:
        verdict = "CONFIRMED" if confirmed else "NOT CONFIRMED"
        self._event(clocks, REPLAY_END, correlation_id, "",
                    f"{claim}: {verdict} after {clocks} clock(s)")
        self.replays.append({
            "correlation_id": correlation_id,
            "claim": claim,
            "confirmed": confirmed,
            "clocks": clocks,
        })

    # -- summaries -----------------------------------------------------

    def journal_kinds(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts
