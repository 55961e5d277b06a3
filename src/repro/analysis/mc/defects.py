"""Seeded proof-sharing defect: prove the differential check catches a
proof key that forgets an input.

The process-wide proof table (:class:`~repro.analysis.product.ProofTable`)
hands one channel's clean proof to every later channel with the same
key, so a key that leaves out something the proof depends on serves
wrong verdicts silently.  The defect here is a keyer that drops the
protection plan's retry budget and timeout: the controllers do not
depend on them, but the counter abstraction and the proven clock bound
do.  The judge runs one scenario through a fresh table built on the
entry's keyer -- the parity-protected FLC under its default plan, under
a plan with a smaller budget and timeout, then the default plan again
-- and :func:`~repro.analysis.mc.passes.differential_proof_check`
compares every channel's table answer with a fresh proof.  The defect
must fire exactly P706 and the defect-free control nothing.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.mc.passes import differential_proof_check
from repro.analysis.mutations import build_target
from repro.analysis.product import ProofKeyer, ProofTable
from repro.corpus import Corpus, SeededDefect
from repro.protocols import PARITY, ProtectionPlan, Protocol


class PlanBlindKeyer(ProofKeyer):
    """Temporal key that keeps the plan's code, retry step and NACK
    line but forgets its retry budget and timeout, so plans that differ
    only there collide on one proof."""

    def temporal(self, model, plan: Optional[ProtectionPlan],
                 protocol: Protocol, words: int):
        if plan is not None:
            plan = (plan.protection, plan.retry_step, plan.nack_line)
        return super().temporal(model, plan, protocol, words)


#: The scenario's plans, in order: the default parity plan, a tighter
#: one differing only in budget and timeout, and the default again (so
#: the control also serves proofs from the table).
SCENARIO_PLANS = (ProtectionPlan(PARITY),
                  ProtectionPlan(PARITY, timeout_clocks=3, max_retries=2),
                  ProtectionPlan(PARITY))


def _judge(keyer: ProofKeyer):
    proofs = ProofTable(keyer)
    fired, proved = [], 0
    for plan in SCENARIO_PLANS:
        spec = build_target(protection=plan)
        fired += differential_proof_check(spec, proofs).codes()
        proved += 2 * sum(len(list(bus.group)) for bus in spec.buses)
    problems = [] if len(proofs.clean) < proved else [
        "no proof was served from the table"]
    return fired, problems


_DEFECTS = (
    SeededDefect(
        "key_omits_plan_budget", ("P706",),
        "proof key drops the protection plan's retry budget and "
        "timeout; a tighter plan is served the proof, and the clock "
        "bound, of a looser one",
        PlanBlindKeyer),
)

_CONTROLS = (
    SeededDefect("proof_key_control", (),
                 "the production proof key",
                 ProofKeyer),
)

CORPUS = Corpus("proofs", _DEFECTS, _CONTROLS, _judge)
