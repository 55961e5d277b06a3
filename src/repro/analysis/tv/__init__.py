"""Translation validation for the compiled simulation backend.

``repro.sim.compiled`` lowers each behavior to specialized Python for
a 10-100x simulation speedup; this package is the static proof that
the speedup did not change the semantics.  Per process it either

* **validates**: every proof obligation discharged -- clock batching
  telescopes to the interpreter's per-statement wait sum, contested
  effects happen at provably exact clocks, wraps are present (or their
  elision certified by a range certificate), transfers reproduce the
  planned tier and the deferred virtual-grant clock formula, and every
  lowered expression is alpha-equivalent to an independently derived
  lowering; or
* **refutes** with a ``P801``-``P806`` diagnostic and a counterexample
  recipe replayable with :func:`replay_backend_divergence`.

The compiled backend proves each lowered unit when it builds it
(:mod:`repro.sim.compiled.codegen`) and keeps the verdict with it;
``simulate(..., backend="compiled")`` then demotes refuted processes
to the interpreter by default, so the compiled backend never executes
an unproven process.
"""

from repro.analysis.mc.replay import ReplayResult
from repro.analysis.tv.checker import (
    ProcessVerdict,
    Refutation,
    ValidationReport,
    validate_behavior,
    validate_program,
)
from repro.analysis.tv.trace import BehaviorFacts, spec_facts
from repro.errors import SimulationError

__all__ = [
    "BehaviorFacts",
    "ProcessVerdict",
    "Refutation",
    "ValidationReport",
    "replay_backend_divergence",
    "spec_facts",
    "validate_behavior",
    "validate_program",
    "validate_refined",
]


def validate_refined(spec, schedule=None, **sim_kwargs):
    """Elaborate ``spec`` with the compiled backend and validate every
    lowered process.  Convenience entry point for ``lint``/``verify``:
    validation runs on the exact sources the backend would execute,
    without running the simulation."""
    from repro.sim.runtime import RefinedSimulation

    sim = RefinedSimulation(spec, schedule=schedule, backend="compiled",
                            validate_compiled=False, **sim_kwargs)
    return validate_program(sim)


def _run_observations(spec, schedule, backend: str, transform,
                      max_clocks: int):
    """One backend-divergence probe run: observable outcome or error.

    Returns ``(observations, error)`` where exactly one is ``None``.
    ``transform`` (a source-text hook for the compiled backend, see
    :func:`repro.sim.compiled.source_transform`) is installed for the
    duration of the run when given.
    """
    from repro.sim.runtime import simulate

    def run():
        return simulate(spec, schedule=schedule, backend=backend,
                        max_clocks=max_clocks,
                        validate_compiled=False)

    try:
        if transform is None:
            result = run()
        else:
            from repro.sim.compiled import source_transform
            with source_transform(transform):
                result = run()
    except SimulationError as error:
        return None, error
    observations = {
        "end_time": result.end_time,
        "final_values": dict(result.final_values),
        "clocks": dict(result.clocks),
        "transactions": {
            bus: [(t.start_time, t.end_time, t.channel,
                   t.direction.name, t.address, t.data, t.initiator)
                  for t in log]
            for bus, log in result.transactions.items()},
    }
    return observations, None


def replay_backend_divergence(spec, schedule=None, transform=None,
                              max_clocks: int = 10_000_000,
                              ) -> ReplayResult:
    """Concretely confirm that a (mutated) compiled program diverges
    from the interpreter.

    This is the counterexample half of translation validation
    (:mod:`repro.analysis.tv`): when the validator refutes a lowered
    process, the refutation is only as credible as a real run that
    observably differs.  The interpreter executes ``spec`` as ground
    truth; the compiled backend executes it with validation disabled
    and, when given, ``transform`` applied to every generated source
    (the defect under study) -- exactly the program the validator
    rejected.  Without a transform the comparison judges the compiled
    backend as-built (e.g. a refuted stock lowering).  The two
    runs are then compared on everything the simulation observes:
    raised-vs-completed parity and error messages, final variable
    values, end time, per-behavior active clocks, and per-bus
    transaction logs (start/end clocks, channel, direction, address,
    raw data, initiator).

    Returns a :class:`ReplayResult` whose ``confirmed`` means the
    backends concretely diverged, with the first difference in
    ``divergence``.  A clean miscompile that happens to be observably
    equivalent on this spec comes back unconfirmed -- the validator's
    refutation would then be conservative, not witnessed.
    """
    result = ReplayResult(confirmed=False, claim="backend_divergence")
    interp, interp_error = _run_observations(
        spec, schedule, "interp", None, max_clocks)
    compiled, compiled_error = _run_observations(
        spec, schedule, "compiled", transform, max_clocks)

    if (interp_error is None) != (compiled_error is None):
        raised, side = ((compiled_error, "compiled")
                        if compiled_error is not None
                        else (interp_error, "interp"))
        result.confirmed = True
        result.divergence = (f"only the {side} backend raised: {raised}")
    elif interp_error is not None:
        if str(interp_error) != str(compiled_error):
            result.confirmed = True
            result.divergence = (
                f"error mismatch: interp raised {interp_error!r}, "
                f"compiled raised {compiled_error!r}")
        else:
            result.detail = (f"both backends raised identically: "
                             f"{interp_error}")
    else:
        assert interp is not None and compiled is not None
        result.clocks = interp["end_time"]
        for what in ("final_values", "end_time", "clocks",
                     "transactions"):
            if interp[what] == compiled[what]:
                continue
            result.confirmed = True
            result.divergence = (
                f"{what} differ: interp {interp[what]!r} vs "
                f"compiled {compiled[what]!r}")
            break
        else:
            result.detail = ("interpreter and compiled runs are "
                             "observably identical")
    if result.confirmed:
        result.detail = ("compiled backend observably diverges from "
                         "the interpreter on this spec")
    return result
