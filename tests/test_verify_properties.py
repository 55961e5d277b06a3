"""Property-based contract between the model checker and the kernel.

The temporal verifier's two headline guarantees, held as properties:

* **Refutations are real** -- every REFUTED verdict carries a witness
  schedule, and every witness replays CONFIRMED through the
  event-driven simulator (``repro.analysis.mc.replay``).  A witness that
  diverges or fails to exhibit its claim would mean the checker proved
  a fact about a machine other than the one we simulate.
* **Proofs are respected** -- on a design whose properties are all
  PROVED, no fault-free simulation can exhibit a violation: the run
  completes with oracle-identical values, needs no retries, and every
  bus transaction finishes within the proven retry-termination clock
  bound.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.analysis.mc import verify_refined
from repro.analysis.mc.checker import PROP_RETRY, PROVED, REFUTED
from repro.analysis.mutations import CORPUS
from repro.analysis.product import channel_models
from repro.apps.flc import build_flc, reference_ctrl_output
from repro.busgen.algorithm import generate_bus
from repro.protogen.refine import refine_system
from repro.analysis.mc import replay_witness
from repro.sim.runtime import simulate

_SETTINGS = dict(deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])

#: Corpus entries seeding temporal (P7xx) defects: the slice of the
#: corpus whose refutations come with replayable witnesses.
TEMPORAL_NAMES = [d.name for d in CORPUS.defects
                  if d.code.startswith("P7")]


@pytest.fixture(scope="module")
def witness_pool():
    """(defect, witness, accessor, server, width) for every witness
    the checker emits across the temporal defect corpus."""
    pool = []
    for name in TEMPORAL_NAMES:
        spec = CORPUS.find(name).build()
        for witness in verify_refined(spec).witnesses:
            model = channel_models(spec)[(witness.bus, witness.channel)]
            pool.append((name, witness, model.accessor, model.server,
                         spec.bus(witness.bus).structure.width))
    return pool


def test_every_refutation_replays_confirmed(witness_pool):
    """REFUTED => the witness schedule reproduces on real wires."""
    assert witness_pool, "temporal corpus produced no witnesses"
    failures = []
    for name, witness, accessor, server, width in witness_pool:
        result = replay_witness(witness, accessor, server, width=width)
        if not result.confirmed:
            failures.append(f"{name}/{witness.code} "
                            f"({witness.claim.get('type')}): "
                            + result.render_text())
    assert not failures, "\n".join(failures)


def test_witnesses_survive_serialization(witness_pool, tmp_path):
    """Replay confirmation is invariant under the JSON round trip."""
    from repro.analysis.mc import Witness

    name, witness, accessor, server, width = witness_pool[0]
    path = tmp_path / "w.json"
    witness.save(path)
    result = replay_witness(Witness.load(path), accessor, server,
                            width=width)
    assert result.confirmed, result.render_text()


def _proven_bounds(report):
    """(bus, channel) -> proven retry-termination clock bound."""
    return {(v.bus, v.channel): v.bound_clocks
            for v in report.verdicts
            if v.property_id == PROP_RETRY and v.bound_clocks}


@settings(max_examples=5, **_SETTINGS)
@given(temperature=st.integers(min_value=0, max_value=319),
       humidity=st.integers(min_value=0, max_value=319),
       protection=st.sampled_from([None, "parity", "crc8"]))
def test_proved_properties_hold_on_fault_free_runs(temperature,
                                                   humidity,
                                                   protection):
    """PROVED => no fault-free run violates the property."""
    model = build_flc(temperature, humidity)
    design = generate_bus(model.bus_b)
    refined = refine_system(model.system, [design],
                            protection=protection)

    report = verify_refined(refined)
    assert report.ok, report.render_text()
    assert report.counts()[REFUTED] == 0

    result = simulate(refined, schedule=model.schedule)
    # Response: the run completes with the oracle's values.
    assert result.final_values["ctrl_out"] == \
        reference_ctrl_output(temperature, humidity)
    bounds = _proven_bounds(report)
    for bus_name, log in result.transactions.items():
        for txn in log:
            # Retry-termination: fault-free transfers never retry ...
            assert txn.retries == 0, txn
            bound = bounds.get((bus_name, txn.channel))
            # ... and fit the proven worst-case window.
            assert bound is not None, (bus_name, txn.channel)
            assert txn.end_time - txn.start_time <= bound, (
                f"{txn.channel}: transfer took "
                f"{txn.end_time - txn.start_time} clocks, proof "
                f"bounds it at {bound}")


@settings(max_examples=12, **_SETTINGS)
@given(width=st.integers(min_value=5, max_value=23))
def test_clean_designs_verify_at_any_width(width):
    """The proofs are width-independent: every Equation-1-feasible
    buswidth of the clean FLC verifies end to end."""
    from repro.errors import InfeasibleBusError

    model = build_flc()
    try:
        design = generate_bus(model.bus_b, widths=[width])
    except InfeasibleBusError:
        assume(False)  # narrow widths can fail Equation 1 -- not ours
    refined = refine_system(model.system, [design])
    report = verify_refined(refined)
    assert report.ok, report.render_text()
    assert all(v.status == PROVED for v in report.verdicts)
