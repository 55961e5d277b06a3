"""Design-space explorer: grid, keys, cache gates, runner, defects.

The crash-safety test at the bottom is the PR's headline guarantee:
a worker killed *mid-cache-write* (fault injection via
``REPRO_EXPLORE_TEST_CRASH``) must never publish a partial entry, and
a rerun over the same cache directory recomputes exactly the missing
stages.
"""

from __future__ import annotations

import glob
import json
import os

import pytest

from repro.errors import ExploreError
from repro.explore import (
    ExploreCache,
    GridPoint,
    Keyer,
    NullCache,
    TaskSpec,
    canonical_report,
    differential_check,
    expand_grid,
    explore,
    parse_grid,
)
from repro.explore.cache import (
    CRASH_ENV,
    EX101_COLLISION,
    EX102_STALE,
    EX103_CORRUPT,
    SCHEMA,
)
from repro.explore import cache as cache_module
from repro.explore import keys
from repro.explore.defects import CORPUS, SaltBlindKeyer, WidthBlindKeyer
from repro.explore.keys import canonical_bytes, code_salt, digest
from repro.explore.pareto import pareto_rank, render_table
from repro.explore.runner import execute_point
from repro.explore.systems import load_system
from repro.explore.tasks import PointContext, build_point_tasks

DEMO_GRID = ["width=1,2", "protection=none,parity"]


def demo_points():
    return expand_grid(parse_grid(DEMO_GRID))


# ---------------------------------------------------------------------------
# Grid parsing and expansion
# ---------------------------------------------------------------------------

class TestGrid:
    def test_defaults_fill_unmentioned_axes(self):
        axes = parse_grid(["width=4,8"])
        assert axes["width"] == [4, 8]
        assert axes["protocol"] == ["full_handshake"]
        assert axes["protection"] == ["none"]
        assert axes["arbitration"] == ["fifo"]

    def test_expansion_is_canonical_cartesian_order(self):
        points = expand_grid(parse_grid(
            ["width=2,1", "protection=parity,none"]))
        labels = [p.label for p in points]
        assert labels == [
            "width=2 full_handshake prot=parity arb=fifo",
            "width=2 full_handshake prot=none arb=fifo",
            "width=1 full_handshake prot=parity arb=fifo",
            "width=1 full_handshake prot=none arb=fifo",
        ]

    def test_width_auto_and_integers(self):
        axes = parse_grid(["width=4,auto"])
        assert axes["width"] == [4, "auto"]

    def test_duplicate_values_collapse_in_order(self):
        axes = parse_grid(["width=4,8,4"])
        assert axes["width"] == [4, 8]

    @pytest.mark.parametrize("token", [
        "width", "width=", "=4", "depth=3", "width=0", "width=-2",
        "width=x", "protocol=nope", "protection=hamming",
        "arbitration=coin-flip",
    ])
    def test_bad_tokens_rejected(self, token):
        with pytest.raises(ExploreError):
            parse_grid([token])

    def test_duplicate_axis_rejected(self):
        with pytest.raises(ExploreError):
            parse_grid(["width=4", "width=8"])


# ---------------------------------------------------------------------------
# Keys
# ---------------------------------------------------------------------------

class TestKeys:
    def test_key_covers_every_param(self):
        keyer = Keyer()
        base = TaskSpec("sim", {"width": 4, "protection": "none"})
        for name, other in [("width", 8), ("protection", "parity")]:
            changed = dict(base.params)
            changed[name] = other
            assert keyer.key(TaskSpec("sim", changed)) != keyer.key(base)

    def test_key_chains_through_dependencies(self):
        keyer = Keyer()
        dep_a = TaskSpec("busgen", {"width": 4})
        dep_b = TaskSpec("busgen", {"width": 8})
        assert keyer.key(TaskSpec("refine", {"p": 1}, (dep_a,))) != \
            keyer.key(TaskSpec("refine", {"p": 1}, (dep_b,)))

    def test_shared_prefixes_share_keys(self):
        keyer = Keyer()
        partition = TaskSpec("partition", {"system": "demo"})
        tasks_a = build_point_tasks(
            partition, GridPoint(4, "full_handshake", "none", "fifo"),
            "interp")
        tasks_b = build_point_tasks(
            partition,
            GridPoint(4, "full_handshake", "parity", "fifo"), "interp")
        keys_a = [keyer.key(t) for t in tasks_a]
        keys_b = [keyer.key(t) for t in tasks_b]
        # partition + busgen shared; refine + sim diverge on protection
        assert keys_a[:2] == keys_b[:2]
        assert keys_a[2] != keys_b[2] and keys_a[3] != keys_b[3]

    def test_salt_changes_key(self):
        task = TaskSpec("sim", {"width": 4})
        assert Keyer(salt="a").key(task) != Keyer(salt="b").key(task)
        assert Keyer().salt == code_salt()

    def test_canonical_bytes_order_independent(self):
        assert canonical_bytes({"a": 1, "b": [1, 2]}) == \
            canonical_bytes({"b": [1, 2], "a": 1})
        assert digest({"x": {"b": 2, "a": 1}}) == \
            digest({"x": {"a": 1, "b": 2}})

    def test_canonical_bytes_rejects_non_json(self):
        with pytest.raises(ExploreError):
            canonical_bytes({"bad": object()})

    def test_defective_keyer_records_honest_inputs(self):
        # The EX101 gate depends on recording staying honest while the
        # (buggy) hash omits a parameter.
        keyer = WidthBlindKeyer()
        a = TaskSpec("busgen", {"width": 4, "protocol": "x"})
        b = TaskSpec("busgen", {"width": 8, "protocol": "x"})
        assert keyer.key(a) == keyer.key(b)
        assert keyer.structural_inputs(a) != keyer.structural_inputs(b)
        assert keyer.structural_inputs(a)["params"]["width"] == 4


# ---------------------------------------------------------------------------
# Cache read gates
# ---------------------------------------------------------------------------

class TestCacheGates:
    def put_one(self, cache, params=None):
        task = TaskSpec("busgen", params or {"width": 4})
        cache.put(task, {"answer": 42})
        return task

    def test_roundtrip(self, tmp_path):
        cache = ExploreCache(str(tmp_path))
        task = self.put_one(cache)
        payload, hit = cache.get(task)
        assert hit and payload == {"answer": 42}
        assert cache.stats.hits == 1 and cache.stats.writes == 1

    def test_entry_is_canonical_schema_json(self, tmp_path):
        cache = ExploreCache(str(tmp_path))
        task = self.put_one(cache)
        with open(cache.path_for(task), "rb") as handle:
            entry = json.loads(handle.read())
        assert entry["schema"] == SCHEMA
        assert entry["salt"] == code_salt()
        assert entry["inputs"]["params"] == {"width": 4}

    def test_truncated_entry_fires_ex103_and_heals(self, tmp_path):
        cache = ExploreCache(str(tmp_path))
        task = self.put_one(cache)
        path = cache.path_for(task)
        with open(path, "rb") as handle:
            raw = handle.read()
        with open(path, "wb") as handle:
            handle.write(raw[:len(raw) // 2])
        payload, hit = cache.get(task)
        assert not hit and payload is None
        assert [i.code for i in cache.incidents] == [EX103_CORRUPT]
        assert cache.scan()[0].code == EX103_CORRUPT
        cache.put(task, {"answer": 42})  # the recompute's overwrite
        assert cache.get(task)[1] and not cache.scan()

    def test_checksum_mismatch_fires_ex103(self, tmp_path):
        cache = ExploreCache(str(tmp_path))
        task = self.put_one(cache)
        path = cache.path_for(task)
        entry = json.loads(open(path, "rb").read())
        entry["payload"]["answer"] = 43  # checksum left stale
        with open(path, "wb") as handle:
            handle.write(canonical_bytes(entry))
        _, hit = cache.get(task)
        assert not hit
        assert [i.code for i in cache.incidents] == [EX103_CORRUPT]

    def test_stale_salt_fires_ex102(self, tmp_path):
        writer = ExploreCache(str(tmp_path), SaltBlindKeyer(salt="old"))
        task = self.put_one(writer)
        reader = ExploreCache(str(tmp_path), SaltBlindKeyer(salt="new"))
        _, hit = reader.get(task)
        assert not hit
        assert [i.code for i in reader.incidents] == [EX102_STALE]

    def test_colliding_inputs_fire_ex101(self, tmp_path):
        keyer = WidthBlindKeyer()
        cache = ExploreCache(str(tmp_path), keyer)
        self.put_one(cache, {"width": 4})
        _, hit = cache.get(TaskSpec("busgen", {"width": 8}))
        assert not hit
        assert [i.code for i in cache.incidents] == [EX101_COLLISION]

    @pytest.mark.parametrize("text", ["[1,2]", '"x"', "1", "null"])
    def test_an_entry_that_is_not_an_object_fires_ex103(self, tmp_path,
                                                         text):
        cache = ExploreCache(str(tmp_path))
        task = self.put_one(cache)
        with open(cache.path_for(task), "w") as handle:
            handle.write(text)
        assert cache.get(task) == (None, False)
        assert [i.code for i in cache.incidents] == [EX103_CORRUPT]
        assert "not an object" in cache.incidents[0].detail
        assert [i.code for i in cache.scan()] == [EX103_CORRUPT]

    @pytest.mark.parametrize("recorded", [42, None, ["x"], {"a": 1}])
    def test_a_checksum_that_is_not_a_string_fires_ex103(self, tmp_path,
                                                         recorded):
        cache = ExploreCache(str(tmp_path))
        task = self.put_one(cache)
        path = cache.path_for(task)
        entry = json.loads(open(path, "rb").read())
        entry["payload_sha256"] = recorded
        with open(path, "wb") as handle:
            handle.write(canonical_bytes(entry))
        assert cache.get(task) == (None, False)
        assert [i.code for i in cache.incidents] == [EX103_CORRUPT]
        assert [i.code for i in cache.scan()] == [EX103_CORRUPT]

    def test_a_payload_that_cannot_be_reencoded_fires_ex103(self,
                                                            tmp_path):
        # json.loads accepts NaN; the checksum's canonical encoding
        # does not.
        cache = ExploreCache(str(tmp_path))
        task = self.put_one(cache)
        path = cache.path_for(task)
        raw = open(path, "rb").read().replace(b'"answer":42',
                                              b'"answer":NaN')
        with open(path, "wb") as handle:
            handle.write(raw)
        assert cache.get(task) == (None, False)
        assert [i.code for i in cache.incidents] == [EX103_CORRUPT]
        assert [i.code for i in cache.scan()] == [EX103_CORRUPT]

    def test_null_cache_never_hits(self):
        cache = NullCache()
        task = TaskSpec("busgen", {"width": 4})
        cache.put(task, {"answer": 42})
        assert cache.get(task) == (None, False)


# ---------------------------------------------------------------------------
# Cost contract: one digest per task, one parse per hit, one encoding
# per write (also gated on the FLC golden grid by
# ``benchmarks/bench_explore.py``)
# ---------------------------------------------------------------------------

def counting(monkeypatch, owner, name, record=lambda *args: True):
    """Wrap ``owner.name``; returns the list of its recorded calls."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        if record(*args):
            calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


class TestCostContract:
    def test_one_digest_per_task_a_point_builds(self, tmp_path,
                                                 monkeypatch):
        points = demo_points()
        digests = counting(monkeypatch, keys, "digest")
        for _ in ("cold", "warm"):
            digests.clear()
            explore("_demo", points, jobs=1, cache_dir=str(tmp_path))
            # Each point builds busgen, refine and sim tasks; the
            # context's partition task is keyed once per sweep's keyer.
            assert len(digests) == 1 + 3 * len(points)
        digests.clear()
        ctx = PointContext(load_system("_demo"))
        execute_point(ctx, ExploreCache(str(tmp_path)), points[0],
                      "interp")
        assert len(digests) == 4

    def test_a_hit_parses_its_entry_once(self, tmp_path, monkeypatch):
        points = demo_points()
        explore("_demo", points, jobs=1, cache_dir=str(tmp_path))
        loads = counting(monkeypatch, json, "loads")
        warm = explore("_demo", points, jobs=1, cache_dir=str(tmp_path))
        assert warm["cache"]["stats"]["hits"] == 4 * len(points)
        assert len(loads) == 4 * len(points)

    def test_a_payload_is_encoded_once_per_write_and_per_hit(
            self, tmp_path, monkeypatch):
        payload = {"answer": [42, {"nested": "\u00e9"}]}
        encodes = counting(monkeypatch, cache_module, "canonical_bytes",
                           lambda obj: obj is payload)
        cache = ExploreCache(str(tmp_path))
        task = TaskSpec("busgen", {"width": 4})
        cache.put(task, payload)
        assert len(encodes) == 1
        with open(cache.path_for(task), "rb") as handle:
            raw = handle.read()
        assert raw == canonical_bytes(json.loads(raw)) + b"\n"
        reencodes = counting(monkeypatch, cache_module, "canonical_bytes")
        digests = counting(monkeypatch, keys, "digest")
        hit_payload, hit = cache.get(task)
        assert hit and hit_payload == payload
        assert len(reencodes) == 1 and not digests  # just the checksum

    def test_two_keyers_on_one_task_each_get_their_own_key(self):
        root = TaskSpec("partition", {"system": "demo"})
        task = TaskSpec("busgen", {"width": 4, "protocol": "x"}, (root,))
        keyers = [Keyer(), WidthBlindKeyer(), Keyer(salt="other")]
        fresh = {id(k): k.compute_key(task) for k in keyers}
        assert len(set(fresh.values())) == 3
        for keyer in keyers + keyers[::-1]:
            assert keyer.key(task) == fresh[id(keyer)]
        wider = TaskSpec("busgen", {"width": 8, "protocol": "x"}, (root,))
        assert keyers[1].key(wider) == keyers[1].key(task)
        assert keyers[0].key(wider) != keyers[0].key(task)


# ---------------------------------------------------------------------------
# Pareto ranking
# ---------------------------------------------------------------------------

class TestPareto:
    def mk(self, label, clocks=None, pins=None, gates=None):
        metrics = None
        if clocks is not None:
            metrics = {"clocks": clocks, "pins": pins,
                       "area_gates": gates}
        return {"label": label, "status": "ok" if metrics else "error",
                "metrics": metrics}

    def test_front_and_dominated(self):
        results = [
            self.mk("a", 10, 5, 100),
            self.mk("b", 20, 5, 100),   # dominated by a
            self.mk("c", 5, 9, 300),    # trade-off: on the front
            self.mk("broken"),
        ]
        pareto = pareto_rank(results)
        assert pareto["front"] == ["c", "a"]
        assert pareto["dominated"] == {"b": "a"}
        assert pareto["excluded"] == ["broken"]

    def test_equal_points_both_on_front(self):
        results = [self.mk("a", 1, 1, 1), self.mk("b", 1, 1, 1)]
        pareto = pareto_rank(results)
        assert pareto["front"] == ["a", "b"]
        assert pareto["dominated"] == {}

    def test_table_mentions_every_point(self):
        results = [self.mk("a", 10, 5, 100), self.mk("broken")]
        lines = render_table(results, pareto_rank(results))
        text = "\n".join(lines)
        assert "front #1" in text and "broken" in text


# ---------------------------------------------------------------------------
# Runner: cold/warm sweeps, shared prefixes, error points
# ---------------------------------------------------------------------------

class TestRunner:
    def test_cold_sweep_shares_prefixes(self, tmp_path):
        report = explore("_demo", demo_points(), jobs=1,
                         cache_dir=str(tmp_path))
        stats = report["cache"]["stats"]
        # 4 points x 4 stages; partition shared x3, busgen shared
        # across protections x2 -> 11 computes, 5 prefix hits.
        assert stats["writes"] == 11
        assert stats["hits"] == 5
        assert report["pareto"]["front"]

    def test_warm_sweep_computes_nothing(self, tmp_path):
        points = demo_points()
        cold = explore("_demo", points, jobs=1,
                       cache_dir=str(tmp_path))
        warm = explore("_demo", points, jobs=1,
                       cache_dir=str(tmp_path))
        assert warm["cache"]["stats"]["writes"] == 0
        assert warm["cache"]["stats"]["misses"] == 0
        assert canonical_report(warm) == canonical_report(cold)

    def test_every_sim_field_identical_warm_vs_cold(self, tmp_path):
        points = demo_points()
        cold = explore("_demo", points, jobs=1,
                       cache_dir=str(tmp_path))
        warm = explore("_demo", points, jobs=1,
                       cache_dir=str(tmp_path))
        for cold_result, warm_result in zip(cold["results"],
                                            warm["results"]):
            assert warm_result["sim"] == cold_result["sim"]
            assert warm_result["refine"] == cold_result["refine"]

    @pytest.mark.parametrize("text", ["[1,2]", '"x"', "1", "null"])
    def test_a_non_object_entry_is_recomputed(self, tmp_path, text):
        points = demo_points()
        cold = explore("_demo", points, jobs=1, cache_dir=str(tmp_path))
        cache = ExploreCache(str(tmp_path))
        stage, key = cache.entries()[-1]
        with open(cache._entry_path(stage, key), "w") as handle:
            handle.write(text)
        assert [i.code for i in cache.scan()] == [EX103_CORRUPT]
        warm = explore("_demo", points, jobs=1, cache_dir=str(tmp_path))
        assert [i["code"] for i in warm["cache"]["incidents"]] == \
            [EX103_CORRUPT]
        assert warm["cache"]["stats"]["writes"] == 1
        assert canonical_report(warm) == canonical_report(cold)
        assert cache.scan() == []

    def test_pipeline_errors_are_cached_results(self, tmp_path):
        # parity requires full_handshake: these points must fail,
        # and a warm sweep must skip the failing compute too.
        points = expand_grid(parse_grid(
            ["width=2", "protocol=half_handshake",
             "protection=parity"]))
        cold = explore("_demo", points, jobs=1,
                       cache_dir=str(tmp_path))
        result = cold["results"][0]
        assert result["status"] == "error"
        assert result["error"]["type"] == "ProtocolError"
        assert result["metrics"] is None
        assert cold["pareto"]["excluded"] == [result["label"]]
        warm = explore("_demo", points, jobs=1,
                       cache_dir=str(tmp_path))
        assert warm["cache"]["stats"]["misses"] == 0
        assert warm["results"][0]["error"] == result["error"]

    def test_no_cache_dir_runs_cacheless(self):
        report = explore("_demo", demo_points()[:1], jobs=1)
        assert report["cache"]["root"] is None
        assert report["cache"]["stats"]["hits"] == 0

    def test_arbitration_axis_runs(self, tmp_path):
        points = expand_grid(parse_grid(
            ["width=2", "arbitration=priority,rr,tdma"]))
        report = explore("_demo", points, jobs=1,
                         cache_dir=str(tmp_path))
        assert [r["status"] for r in report["results"]] == ["ok"] * 3
        # arbitration only affects the sim stage: one refine compute.
        assert sum(1 for s, _ in ExploreCache(str(tmp_path)).entries()
                   if s == "refine") == 1

    def test_spec_file_systems_are_sweepable(self, tmp_path):
        spec = os.path.join(os.path.dirname(__file__), os.pardir,
                            "examples", "specs", "fig3.spec")
        points = expand_grid(parse_grid(["width=4,8"]))
        report = explore(spec, points, jobs=1,
                         cache_dir=str(tmp_path))
        assert [r["status"] for r in report["results"]] == ["ok"] * 2
        assert report["pareto"]["front"]

    def test_bad_jobs_rejected(self):
        with pytest.raises(ExploreError):
            explore("_demo", [], jobs=0)

    def test_unknown_system_rejected(self):
        with pytest.raises(ExploreError):
            explore("no-such-system", demo_points()[:1])

    def test_builtin_systems_load(self):
        from repro.explore import load_system
        for name in ("flc", "answering-machine", "ethernet"):
            loaded = load_system(name)
            assert loaded.groups and loaded.oracle

    def test_unknown_arbitration_rejected(self):
        from repro.explore.tasks import arbiter_factories
        with pytest.raises(ExploreError):
            arbiter_factories("coin-flip")

    def test_axis_names_have_one_source(self):
        from repro import protocols
        from repro.explore.grid import ARBITRATIONS, PROTECTIONS
        from repro.explore.tasks import ARBITERS
        assert PROTECTIONS == tuple(protocols.PROTECTIONS)
        assert tuple(ARBITERS) == ARBITRATIONS

    def test_differential_check_clean_on_honest_cache(self, tmp_path):
        points = demo_points()
        explore("_demo", points, jobs=1, cache_dir=str(tmp_path))
        diff = differential_check("_demo", points,
                                  ExploreCache(str(tmp_path)))
        assert diff["incidents"] == []
        assert diff["checked"] == 11
        assert diff["skipped_gated"] == 0


    def test_an_evicted_refined_spec_is_rebuilt_identically(
            self, tmp_path, monkeypatch):
        """A context keeps at most ``REFINED_MEMO_LIMIT`` refined specs;
        a sim stage whose spec was evicted rebuilds it from the cached
        busgen payload and reports exactly what a kept spec gives."""
        from repro.explore import runner, tasks

        # The second arbitration of width 4 comes after width 8 has
        # displaced width 4's refined spec from a one-spec memo.
        points = [GridPoint(4, "full_handshake", "none", "fifo"),
                  GridPoint(8, "full_handshake", "none", "fifo"),
                  GridPoint(4, "full_handshake", "none", "priority")]
        refines = []
        compute_refine = tasks.PointContext.compute_refine

        def counting_refine(self, params, busgen, refine_key):
            refines.append(refine_key)
            return compute_refine(self, params, busgen, refine_key)

        monkeypatch.setattr(tasks.PointContext, "compute_refine",
                            counting_refine)
        reports = []
        for limit in (tasks.REFINED_MEMO_LIMIT, 1):
            refines.clear()
            monkeypatch.setattr(runner, "_CONTEXTS", {})
            monkeypatch.setattr(tasks, "REFINED_MEMO_LIMIT", limit)
            reports.append(canonical_report(explore(
                "answering-machine", points, jobs=1,
                cache_dir=str(tmp_path / str(limit)),
                backend="compiled")))
            assert len(runner._CONTEXTS["answering-machine"]._refined) \
                <= limit
            # Two refine stages, plus the rebuild of the evicted spec.
            assert len(refines) == (2 if limit > 1 else 3)
        assert reports[0] == reports[1]


# ---------------------------------------------------------------------------
# Seeded cache-defect corpus: each bug caught by exactly its check
# ---------------------------------------------------------------------------

class TestDefectCorpus:
    """Each defect's exactness is checked with every other corpus in
    ``tests/test_mutations.py``."""

    def test_corpus_covers_all_gate_codes(self):
        assert {d.code for d in CORPUS.defects} == \
            {"EX101", "EX102", "EX103", "EX104"}


# ---------------------------------------------------------------------------
# Crash safety: a worker killed mid-write publishes nothing
# ---------------------------------------------------------------------------

class TestCrashSafety:
    def test_killed_worker_leaves_no_partial_entry(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setenv(CRASH_ENV, "refine")
        points = demo_points()
        with pytest.raises(ExploreError, match="worker died"):
            explore("_demo", points, jobs=2, cache_dir=str(tmp_path))
        monkeypatch.delenv(CRASH_ENV)

        # Only temp files may remain from the killed writers; no
        # partial refine entry is visible and the scan is clean.
        assert glob.glob(str(tmp_path / "refine" / "*.json")) == []
        cache = ExploreCache(str(tmp_path))
        assert cache.scan() == []
        published = cache.entries()
        assert all(stage in ("partition", "busgen")
                   for stage, _ in published)

        # The rerun recomputes the missing stages and completes.
        report = explore("_demo", points, jobs=1,
                         cache_dir=str(tmp_path))
        assert all(r["status"] == "ok" for r in report["results"])
        assert report["cache"]["incidents"] == []
        diff = differential_check("_demo", points, ExploreCache(
            str(tmp_path)))
        assert diff["incidents"] == []

    def test_inline_put_is_atomic_tmp_then_rename(self, tmp_path):
        cache = ExploreCache(str(tmp_path))
        task = TaskSpec("busgen", {"width": 4})
        cache.put(task, {"answer": 42})
        assert not glob.glob(str(tmp_path / "busgen" / "*.tmp.*"))
        assert os.path.exists(cache.path_for(task))


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestExploreCli:
    def run(self, *argv):
        from repro.cli import main
        return main(list(argv))

    def test_table_output(self, tmp_path, capsys):
        assert self.run("explore", "_demo", "--grid", "width=1,2",
                        "--cache", str(tmp_path / "c")) == 0
        out = capsys.readouterr().out
        assert "front #1" in out
        assert "hits 1" in out  # shared partition stage

    def test_json_output_is_canonical_report(self, tmp_path, capsys):
        assert self.run("explore", "_demo", "--grid", "width=2",
                        "--cache", str(tmp_path / "c"),
                        "--json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == "repro.explore/report/v1"
        assert report["points"][0]["metrics"]["clocks"] > 0

    def test_check_flag_reports_clean(self, tmp_path, capsys):
        assert self.run("explore", "_demo", "--grid", "width=2",
                        "--cache", str(tmp_path / "c"),
                        "--check") == 0
        assert "differential check" in capsys.readouterr().out

    def test_check_without_cache_is_an_error(self, capsys):
        assert self.run("explore", "_demo", "--check") == 2
        assert "--check requires --cache" in capsys.readouterr().err

    def test_report_out_writes_full_report(self, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        assert self.run("explore", "_demo", "--grid", "width=2",
                        "--report-out", str(out_file)) == 0
        report = json.loads(out_file.read_text())
        assert report["results"][0]["spans"]["spans"]
        assert report["wall_seconds"] > 0

    def test_bad_grid_is_an_error(self, capsys):
        assert self.run("explore", "_demo", "--grid", "width=zero") == 2
        assert "width" in capsys.readouterr().err

    def test_all_points_failing_is_exit_1(self, tmp_path, capsys):
        assert self.run("explore", "_demo", "--grid",
                        "protocol=half_handshake",
                        "protection=parity",
                        "--cache", str(tmp_path / "c")) == 1
        assert "ProtocolError" in capsys.readouterr().out
