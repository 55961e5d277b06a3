"""Seeded-defect corpora: one runner and one exactness contract.

A check that nothing has ever made fire proves nothing, so each of the
tool's checkers is proven by a corpus of seeded defects.  Each of
:mod:`repro.analysis.mutations` (the static analyzer, P1xx-P7xx),
:mod:`repro.analysis.tv.mutations` (the translation validator, P8xx),
:mod:`repro.explore.defects` (the explore cache, EX1xx) and
:mod:`repro.analysis.mc.defects` (the shared proof table, P706) exports
one :class:`Corpus` as ``CORPUS``: its :class:`SeededDefect` entries, its
defect-free control builds and a *judge* that turns one build into
``(fired codes, problems)``.  An entry is **exact** when it fires
exactly its declared code set -- the empty set for a control -- and the
judge found nothing wrong with the run itself (an unmutated baseline
that does not pass, a mutation that matched nothing, ...).

``python -m repro.corpus`` (``make defect-corpus``) runs every corpus,
prints one line per entry and exits 1 on any inexact outcome.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any, Callable, Collection, List, Optional, Sequence, Tuple

#: What a judge returns for one build: the codes the checker fired and
#: the problems that make the run itself untrustworthy.
Judgement = Tuple[Collection[str], Sequence[str]]


@dataclass(frozen=True)
class SeededDefect:
    """One seeded defect, or (with no codes) one control build."""

    name: str
    #: The exact codes the defect must fire, its seeded code first;
    #: empty for a control, which must fire nothing.
    codes: Tuple[str, ...]
    description: str
    #: Builds a fresh defective artifact for the corpus' judge.
    build: Callable[[], Any]

    @property
    def code(self) -> str:
        """The seeded code: the one the defect exists to exercise."""
        return self.codes[0]


@dataclass(frozen=True)
class Outcome:
    """What the judge found for one entry of a corpus."""

    corpus: str
    entry: SeededDefect
    #: Distinct codes fired, sorted.
    fired: Tuple[str, ...]
    problems: Tuple[str, ...]

    @property
    def exact(self) -> bool:
        return set(self.fired) == set(self.entry.codes) \
            and not self.problems

    def render_line(self) -> str:
        want = ",".join(sorted(self.entry.codes)) or "-"
        line = (f"{'ok' if self.exact else 'FAIL':4s} {self.corpus:8s} "
                f"{self.entry.name:28s} want {want:25s} "
                f"got {','.join(self.fired) or '-'}")
        if self.problems:
            line += f"  ({'; '.join(self.problems)})"
        return line


@dataclass(frozen=True)
class Corpus:
    """Seeded defects and controls of one checker, and its judge."""

    name: str
    defects: Tuple[SeededDefect, ...]
    controls: Tuple[SeededDefect, ...]
    judge: Callable[[Any], Judgement]

    @property
    def entries(self) -> Tuple[SeededDefect, ...]:
        return self.defects + self.controls

    def find(self, name: str) -> Optional[SeededDefect]:
        """The defect called ``name``, or None."""
        return next((d for d in self.defects if d.name == name), None)

    def check(self, entry: SeededDefect) -> Outcome:
        fired, problems = self.judge(entry.build())
        return Outcome(self.name, entry, tuple(sorted(set(fired))),
                       tuple(problems))

    def run(self) -> List[Outcome]:
        """One outcome per defect, then one per control."""
        return [self.check(entry) for entry in self.entries]


def all_corpora() -> List[Corpus]:
    # Imported here: each corpus module imports this one.
    from repro.analysis import mutations
    from repro.analysis.mc import defects as proof_defects
    from repro.analysis.tv import mutations as tv_mutations
    from repro.explore import defects

    return [mutations.CORPUS, tv_mutations.CORPUS, defects.CORPUS,
            proof_defects.CORPUS]


def main() -> int:
    inexact = 0
    for corpus in all_corpora():
        for outcome in corpus.run():
            print(outcome.render_line())
            inexact += not outcome.exact
    if inexact:
        print(f"\n{inexact} inexact outcome(s)")
        return 1
    print("\nevery seeded defect and control is exact")
    return 0


if __name__ == "__main__":
    sys.exit(main())
