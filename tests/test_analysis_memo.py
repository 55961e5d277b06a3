"""One analysis per refined spec: the memo shared by lint and verify.

``analyze_refined_values``, ``refined_channel_bounds``,
``channel_models`` and ``verify_refined`` memoize their results on the
:class:`~repro.protogen.refine.RefinedSpec`.  These differential tests
check that a warm memo changes no result on the three case studies and
the seeded-defect corpus, that a ``with_fsm_transform`` copy neither
reads nor fills the memo of the spec it copies, and that a lint +
verify runs the abstract interpreter once, synthesizes each controller
once and explores each product state once.
"""

from functools import partial

import pytest

from repro import obs
from repro.analysis import analyze_refined, product
from repro.analysis.absint import analyze_refined_values
from repro.analysis.mc import verify_refined
from repro.analysis.mutations import CORPUS, build_target
from repro.busgen.split import plan_buses
from repro.explore.systems import load_system
from repro.protogen import fsm
from repro.protogen.refine import refine_system

SYSTEMS = ["flc", "answering-machine", "ethernet"]
#: Controller defects build ``partial(_mutated_controllers, transform)``.
CONTROLLER = [d for d in CORPUS.defects if isinstance(d.build, partial)]
STRUCTURAL = [d for d in CORPUS.defects if d not in CONTROLLER]


def _case_study(name, protection=None):
    loaded = load_system(name)
    return refine_system(loaded.system, plan_buses(loaded.groups),
                         protection=protection)


def _builders():
    """(id, zero-argument builder of a fresh refined spec) pairs."""
    cases = [(name, lambda name=name: _case_study(name))
             for name in SYSTEMS]
    cases += [(defect.name, defect.build) for defect in STRUCTURAL]
    return cases


BUILDERS = _builders()
IDS = [case_id for case_id, _ in BUILDERS]


@pytest.mark.parametrize("build", [b for _, b in BUILDERS], ids=IDS)
def test_verify_after_lint_matches_a_fresh_spec(build):
    linted = build()
    analyze_refined(linted)
    assert verify_refined(linted).to_dict() \
        == verify_refined(build()).to_dict()


@pytest.mark.parametrize("build", [b for _, b in BUILDERS], ids=IDS)
def test_lint_json_is_identical_with_a_warm_memo(build):
    cold = analyze_refined(build()).render_json()
    warm_spec = build()
    verify_refined(warm_spec)
    assert analyze_refined(warm_spec).render_json() == cold
    assert analyze_refined(warm_spec).render_json() == cold


def test_memo_keys_verification_by_witness_meta():
    spec = _case_study("flc")
    plain = verify_refined(spec)
    tagged = verify_refined(spec, witness_meta={"system_arg": "flc"})
    assert verify_refined(spec) is plain
    assert verify_refined(spec, witness_meta={"system_arg": "flc"}) \
        is tagged
    assert tagged is not plain


@pytest.mark.parametrize("defect", CONTROLLER, ids=lambda d: d.name)
def test_fsm_transform_calls_never_read_or_fill_the_memo(defect):
    expected_lint = analyze_refined(defect.build()).render_json()
    expected_verify = verify_refined(defect.build()).to_dict()

    # Poison every entry a plain call would read on the spec the
    # defect copies: a transformed copy that consulted that memo would
    # crash or return the wrong report.
    transform = defect.build.args[0]
    spec = build_target(**defect.build.keywords)
    poison = object()
    spec.analysis_memo.update({"values": poison, "bounds": poison,
                               ("verify", ()): poison})
    before = dict(spec.analysis_memo)
    mutated = product.with_fsm_transform(spec, transform)
    assert analyze_refined(mutated).render_json() == expected_lint
    assert verify_refined(mutated).to_dict() == expected_verify
    assert spec.analysis_memo == before


@pytest.mark.parametrize("defect", CORPUS.defects, ids=lambda d: d.name)
def test_corpus_builders_return_unanalyzed_specs(defect):
    """Nothing but a controller defect's own models is memoized."""
    memo = defect.build().analysis_memo
    assert set(memo) == ({product._MODELS_KEY} if defect in CONTROLLER
                         else set())


@pytest.mark.parametrize("name", SYSTEMS)
def test_traced_lint_and_verify_run_absint_once(name):
    spec = _case_study(name)
    with obs.tracing() as tracer:
        analyze_refined(spec)
        verify_refined(spec)
        analyze_refined_values(spec)
    spans = [s for s in tracer.spans_named("absint.analyze")
             if s.args.get("system") == spec.name]
    assert len(spans) == 1


@pytest.mark.parametrize("protection", [None, "parity"])
@pytest.mark.parametrize("name", SYSTEMS)
def test_lint_and_verify_share_one_controller_model_per_channel(
        name, protection, monkeypatch, cold_proofs):
    spec = _case_study(name, protection)
    channels = sum(len(list(bus.group)) for bus in spec.buses)
    calls = {"synthesize_fsm": [], "__init__": [], "_moves": []}

    def counting(owner, attr):
        real = getattr(owner, attr)

        def wrapper(*args):
            calls[attr].append(args)
            return real(*args)
        monkeypatch.setattr(owner, attr, wrapper)

    counting(fsm, "synthesize_fsm")
    counting(product._Explorer, "__init__")
    counting(product._Explorer, "_moves")
    analyze_refined(spec)
    verify_refined(spec)
    assert len(calls["synthesize_fsm"]) == 2 * channels
    assert len(calls["__init__"]) == channels
    moved = [(id(model), state) for model, state in calls["_moves"]]
    assert moved and len(moved) == len(set(moved))
