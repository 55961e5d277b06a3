"""Seeded-defect corpora: every defect and control of every corpus is
exact (:mod:`repro.corpus`), and the corpora cover the code registries.
"""

import pytest

from repro.corpus import Corpus, SeededDefect, all_corpora
from repro.errors import DIAGNOSTIC_CODES
from repro.explore.cache import INCIDENT_CODES

CORPORA = all_corpora()
ENTRIES = [(corpus, entry) for corpus in CORPORA
           for entry in corpus.entries]


@pytest.fixture(scope="module")
def outcomes():
    """Every corpus run once per module: the per-entry assertions and
    the registry test below share the outcomes."""
    return {(o.corpus, o.entry.name): o
            for corpus in CORPORA for o in corpus.run()}


@pytest.mark.parametrize("corpus,entry", ENTRIES,
                         ids=[entry.name for _, entry in ENTRIES])
def test_seeded_defect_is_caught(corpus, entry, outcomes):
    """A defect fires exactly its declared codes and a control fires
    nothing, with no problem in the run itself."""
    outcome = outcomes[(corpus.name, entry.name)]
    assert outcome.exact, (
        f"{outcome.render_line()}\n{entry.description}")


def test_corpus_covers_every_registered_code():
    """Every registered P-code and EX10x incident code is the seeded
    code of defects in exactly one corpus."""
    owners = {}
    for corpus in CORPORA:
        for defect in corpus.defects:
            owners.setdefault(defect.code, set()).add(corpus.name)
    registered = set(DIAGNOSTIC_CODES) | set(INCIDENT_CODES)
    assert set(owners) == registered
    shared = {code: names for code, names in owners.items()
              if len(names) > 1}
    assert not shared, f"codes seeded by several corpora: {shared}"


def test_no_registry_drift(outcomes):
    """Every code a defect declares or fires is registered."""
    registered = set(DIAGNOSTIC_CODES) | set(INCIDENT_CODES)
    declared = {code for corpus in CORPORA for defect in corpus.defects
                for code in defect.codes}
    fired = {code for outcome in outcomes.values()
             for code in outcome.fired}
    assert declared <= registered, sorted(declared - registered)
    assert fired <= registered, sorted(fired - registered)


def test_corpus_has_at_least_ten_distinct_defects():
    names = [entry.name for _, entry in ENTRIES]
    assert len(names) == len(set(names)), "entry names must be unique"
    assert len(CORPORA[0].defects) >= 10


def _toy_corpus(fires):
    """A corpus whose judge fires ``fires[name]`` for each entry."""
    def build(name):
        return lambda: name

    defects = (SeededDefect("two_codes", ("T1", "T2"), "toy",
                            build("two_codes")),)
    controls = (SeededDefect("toy_control", (), "toy",
                             build("toy_control")),)
    return Corpus("toy", defects, controls,
                  lambda name: (fires[name], ()))


@pytest.mark.parametrize("fired", [("T1",), ("T1", "T2", "T3")],
                         ids=["one_too_few", "one_too_many"])
def test_runner_rejects_an_inexact_code_set(fired):
    corpus = _toy_corpus({"two_codes": fired, "toy_control": ()})
    defect, control = corpus.run()
    assert not defect.exact
    assert defect.render_line().startswith("FAIL")
    assert control.exact


def test_runner_fails_a_control_that_fires():
    corpus = _toy_corpus({"two_codes": ("T2", "T1"), "toy_control": ("T1",)})
    defect, control = corpus.run()
    assert defect.exact
    assert not control.exact


def test_runner_fails_an_exact_code_set_with_a_problem():
    corpus = Corpus("toy", (SeededDefect("d", ("T1",), "toy",
                                         lambda: None),), (),
                    lambda _: (("T1",), ("baseline does not pass",)))
    (outcome,) = corpus.run()
    assert not outcome.exact
    assert "baseline does not pass" in outcome.render_line()


def test_lookup_by_name_finds_defects_only():
    corpus = _toy_corpus({})
    assert corpus.find("two_codes") is corpus.defects[0]
    assert corpus.find("toy_control") is None
    assert corpus.find("missing") is None
