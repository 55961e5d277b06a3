"""Property-based tests (hypothesis) for the explorer's cache keys
and the warm-equals-cold contract.

Four families:

* **key injectivity** -- distinct grid parameters must never produce
  the same task key (a collision here is exactly defect EX101);
* **representation invariance** -- keys are functions of structure,
  not of dict insertion order or other serialization accidents;
* **envelope splicing** -- a cache write's envelope, built around the
  payload's one encoding, is the canonical encoding of the entry;
* **warm == cold** -- over random small grids, a cache-warm sweep
  reproduces every field of every stage payload of a cold sweep.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.explore import (
    ExploreCache,
    GridPoint,
    Keyer,
    TaskSpec,
    canonical_report,
    differential_check,
    explore,
)
from repro.explore.cache import SCHEMA
from repro.explore.keys import canonical_bytes, digest, payload_checksum
from repro.explore.tasks import build_point_tasks

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

widths = st.one_of(st.integers(min_value=1, max_value=64),
                   st.just("auto"))
protocols = st.sampled_from(["full_handshake", "half_handshake",
                             "burst_handshake"])
protections = st.sampled_from(["none", "parity", "crc8"])
arbitrations = st.sampled_from(["fifo", "priority", "rr", "tdma"])

grid_points = st.builds(GridPoint, width=widths, protocol=protocols,
                        protection=protections,
                        arbitration=arbitrations)

json_scalars = st.one_of(st.integers(min_value=-10**9, max_value=10**9),
                         st.text(max_size=20), st.booleans(),
                         st.none())
json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4)),
    max_leaves=12)

PARTITION = TaskSpec("partition", {"system": "prop-test"})


# ---------------------------------------------------------------------------
# Key injectivity over grid parameters
# ---------------------------------------------------------------------------

@given(a=grid_points, b=grid_points)
@settings(max_examples=200, deadline=None)
def test_distinct_points_get_distinct_sim_keys(a, b):
    keyer = Keyer()
    key_a = keyer.key(build_point_tasks(PARTITION, a, "interp")[-1])
    key_b = keyer.key(build_point_tasks(PARTITION, b, "interp")[-1])
    assert (key_a == key_b) == (a == b)


@given(point=grid_points,
       backends=st.tuples(st.sampled_from(["interp", "compiled"]),
                          st.sampled_from(["interp", "compiled"])))
@settings(max_examples=50, deadline=None)
def test_backend_is_part_of_the_sim_key(point, backends):
    keyer = Keyer()
    keys = [keyer.key(build_point_tasks(PARTITION, point, b)[-1])
            for b in backends]
    assert (keys[0] == keys[1]) == (backends[0] == backends[1])


@given(point=grid_points)
@settings(max_examples=50, deadline=None)
def test_stage_keys_are_distinct_within_a_chain(point):
    keyer = Keyer()
    keys = [keyer.key(t)
            for t in build_point_tasks(PARTITION, point, "interp")]
    assert len(set(keys)) == len(keys)


@given(fingerprints=st.tuples(json_values, json_values))
@settings(max_examples=100, deadline=None)
def test_fingerprint_feeds_the_whole_chain(fingerprints):
    point = GridPoint(4, "full_handshake", "none", "fifo")
    keyer = Keyer()
    chains = [build_point_tasks(TaskSpec("partition", {"fp": fp}), point,
                                "interp")
              for fp in fingerprints]
    # Canonical-bytes equality, not Python ==: JSON tells 0 from
    # False, and the keys must too.
    same_fp = canonical_bytes(fingerprints[0]) == \
        canonical_bytes(fingerprints[1])
    for stage_a, stage_b in zip(*chains):
        assert (keyer.key(stage_a) == keyer.key(stage_b)) == same_fp


# ---------------------------------------------------------------------------
# Representation invariance
# ---------------------------------------------------------------------------

def _shuffled(value, rng):
    """Structurally equal copy with every dict rebuilt in a random
    insertion order."""
    if isinstance(value, dict):
        items = [(k, _shuffled(v, rng)) for k, v in value.items()]
        rng.shuffle(items)
        return dict(items)
    if isinstance(value, list):
        return [_shuffled(v, rng) for v in value]
    return value


@given(value=json_values, data=st.data())
@settings(max_examples=150, deadline=None)
def test_canonical_bytes_ignore_dict_insertion_order(value, data):
    rng = data.draw(st.randoms(use_true_random=False))
    permuted = _shuffled(value, rng)
    assert permuted == value
    assert canonical_bytes(permuted) == canonical_bytes(value)
    assert digest(permuted) == digest(value)


@given(params=st.dictionaries(st.sampled_from(
    ["width", "protocol", "protection", "arbitration", "backend"]),
    st.one_of(st.integers(1, 64), st.text(max_size=8)),
    min_size=1, max_size=5), data=st.data())
@settings(max_examples=150, deadline=None)
def test_task_key_ignores_param_order(params, data):
    rng = data.draw(st.randoms(use_true_random=False))
    keyer = Keyer()
    original = TaskSpec("sim", params)
    permuted = TaskSpec("sim", _shuffled(params, rng))
    assert keyer.key(permuted) == keyer.key(original)
    assert keyer.structural_inputs(permuted) == \
        keyer.structural_inputs(original)


# Strings that need escaping in JSON, non-ASCII text and ints far past
# 64 bits: everything the spliced envelope must encode as the whole
# entry's encoding would.
envelope_text = st.one_of(
    st.text(max_size=12),
    st.sampled_from(['"', "\\", "\n\t", "\u2028", "\u00e9t\u00e9",
                     "\U0001f600", '",\"payload\":', "\x00\x1f"]))
envelope_values = st.recursive(
    st.one_of(st.integers(), st.integers(min_value=2**63),
              envelope_text, st.booleans(), st.none(),
              st.floats(allow_nan=False, allow_infinity=False)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(envelope_text, children, max_size=4)),
    max_leaves=16)


@given(stage=envelope_text, salt=envelope_text,
       params=st.dictionaries(envelope_text, envelope_values, max_size=4),
       payload=envelope_values)
@settings(max_examples=300, deadline=None)
def test_spliced_envelope_is_the_canonical_entry(tmp_path_factory, stage,
                                                 salt, params, payload):
    cache = ExploreCache(str(tmp_path_factory.getbasetemp()),
                         Keyer(salt=salt))
    task = TaskSpec(stage, params, (TaskSpec("partition", params),))
    entry = {"schema": SCHEMA, "stage": stage, "salt": salt,
             "inputs": cache.keyer.structural_inputs(task),
             "payload": payload,
             "payload_sha256": payload_checksum(canonical_bytes(payload))}
    assert cache._envelope_bytes(task, payload) == \
        canonical_bytes(entry) + b"\n"


def test_equivalent_spec_serializations_fingerprint_identically():
    # Two independent in-memory builds of the same system (fresh
    # object graphs, fresh dicts) must produce the same stage keys.
    from repro.explore.keys import fingerprint_system
    from repro.explore.systems import build_demo

    prints = []
    for _ in range(2):
        system, groups, schedule, _oracle = build_demo()
        prints.append(fingerprint_system("_demo", system, groups,
                                         schedule))
    assert digest(prints[0]) == digest(prints[1])


# ---------------------------------------------------------------------------
# Warm == cold over random small grids
# ---------------------------------------------------------------------------

demo_widths = st.lists(st.sampled_from([1, 2, 4, "auto"]),
                       min_size=1, max_size=2, unique=True)
demo_protections = st.lists(st.sampled_from(["none", "parity"]),
                            min_size=1, max_size=2, unique=True)
demo_arbitrations = st.lists(st.sampled_from(["fifo", "rr"]),
                             min_size=1, max_size=1)


@given(width=demo_widths, protection=demo_protections,
       arbitration=demo_arbitrations)
@settings(max_examples=8, deadline=None)
def test_warm_sweep_reproduces_every_field(tmp_path_factory, width,
                                           protection, arbitration):
    from repro.explore.grid import expand_grid

    points = expand_grid({"width": width, "protection": protection,
                          "arbitration": arbitration})
    root = str(tmp_path_factory.mktemp("explore-cache"))
    cold = explore("_demo", points, jobs=1, cache_dir=root)
    warm = explore("_demo", points, jobs=1, cache_dir=root)

    assert warm["cache"]["stats"]["misses"] == 0
    assert warm["cache"]["incidents"] == []
    for cold_result, warm_result in zip(cold["results"],
                                        warm["results"]):
        # Every field of every stage payload, not just the metrics.
        assert warm_result["sim"] == cold_result["sim"]
        assert warm_result["refine"] == cold_result["refine"]
        assert warm_result["error"] == cold_result["error"]
        assert warm_result["metrics"] == cold_result["metrics"]
    cold_canonical = json.dumps(canonical_report(cold), sort_keys=True)
    warm_canonical = json.dumps(canonical_report(warm), sort_keys=True)
    assert warm_canonical == cold_canonical

    diff = differential_check("_demo", points, ExploreCache(root))
    assert diff["incidents"] == []
