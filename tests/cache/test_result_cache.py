"""Result-cache behaviour and the hit-vs-cold byte-identity guarantee."""

import json
import threading

import pytest

import repro
from repro import QuantumCircuit, ResourceLimits, ResultCache
from repro.cache import (
    cacheable_request,
    fingerprint,
    normalise_reorder,
    run_key,
)
from repro.engines.base import DEFAULT_AUTO_REORDER_THRESHOLD
from repro.engines.frontdoor import run_tasks
from repro.engines.result import STATUS_TIMEOUT, RunResult
from tests.conftest import ghz


def deterministic(result):
    return json.dumps(result.to_dict(timings=False), sort_keys=True)


class TestKeying:
    def test_reorder_normalisation(self):
        assert normalise_reorder(None) is None
        assert normalise_reorder(False) is None
        assert normalise_reorder(True) == DEFAULT_AUTO_REORDER_THRESHOLD
        assert normalise_reorder(12345) == 12345

    def test_cacheable_request(self):
        assert cacheable_request(None, None)          # pure probability run
        assert cacheable_request(100, 7)              # seeded sampling
        assert not cacheable_request(100, None)       # unseeded sampling

    def test_key_covers_engine_seed_shots_reorder_limits(self):
        circuit = ghz()
        base = run_key(circuit, "bitslice", 1, 10, None)
        assert base == run_key(circuit.copy(), "bitslice", 1, 10, None)
        assert base != run_key(circuit, "qmdd", 1, 10, None)
        assert base != run_key(circuit, "bitslice", 2, 10, None)
        assert base != run_key(circuit, "bitslice", 1, 11, None)
        assert base != run_key(circuit, "bitslice", 1, 10, 500)
        assert base != run_key(circuit, "bitslice", 1, 10, None,
                               ResourceLimits(max_seconds=1.0))
        assert base != run_key(ghz(4), "bitslice", 1, 10, None)

    def test_state_part_drops_sampling_and_limits(self):
        """Checkpoints key on the state part: a run stopped at TO resumes
        under a bigger budget, but never into another engine or reorder."""
        circuit = ghz()
        base = run_key(circuit, "bitslice", 1, 10, None).state
        assert base == run_key(circuit, "bitslice", 2, None, None,
                               ResourceLimits(max_seconds=1.0)).state
        assert base != run_key(circuit, "qmdd", 1, 10, None).state
        assert base != run_key(circuit, "bitslice", 1, 10, 500).state

    def test_reorder_true_and_default_threshold_share_a_key(self):
        circuit = ghz()
        assert (run_key(circuit, "bitslice", None, None, True)
                == run_key(circuit, "bitslice", None, None,
                           DEFAULT_AUTO_REORDER_THRESHOLD))


    def test_run_fingerprints_each_request_at_most_once(self, tmp_path,
                                                         monkeypatch):
        """One run key serves the cache, the checkpoint and the journal;
        a run with none of them never hashes its circuit."""
        calls = []
        normal_form = fingerprint.fingerprint_normal_form
        monkeypatch.setattr(fingerprint, "fingerprint_normal_form",
                            lambda circuit: calls.append(1)
                            or normal_form(circuit))
        circuit = ghz(4, measure=True)
        repro.run(circuit, engine="bitslice", shots=16, seed=1)
        assert calls == []
        cache = ResultCache()
        for _ in range(2):  # a miss, then a hit
            calls.clear()
            repro.run(circuit, engine="bitslice", shots=16, seed=1,
                      cache=cache, checkpoint_every=1,
                      checkpoint_dir=tmp_path)
            assert len(calls) == 1
        # A journalled, cached serial sweep keys each task once.
        calls.clear()
        tasks = [("bitslice", ghz(n, measure=True)) for n in (2, 3, 4)]
        run_tasks(tasks, shots=16, seed=1, journal=tmp_path / "journal.jsonl",
                  cache=ResultCache())
        assert len(calls) == len(tasks)


class TestHitVsCold:
    @pytest.mark.parametrize("engine", ["bitslice", "qmdd", "statevector",
                                        "stabilizer"])
    def test_hit_is_byte_identical_to_cold(self, engine):
        circuit = ghz().measure_all()
        cache = ResultCache()
        cold = repro.run(circuit, engine=engine, shots=128, seed=11,
                         cache=cache)
        hit = repro.run(circuit, engine=engine, shots=128, seed=11,
                        cache=cache)
        assert hit.extra.get("cache_hit") == 1
        assert "cache_hit" not in cold.extra
        assert deterministic(hit) == deterministic(cold)

    def test_hit_without_sampling(self):
        circuit = ghz()
        cache = ResultCache()
        cold = repro.run(circuit, engine="bitslice", cache=cache)
        hit = repro.run(circuit, engine="bitslice", cache=cache)
        assert hit.extra.get("cache_hit") == 1
        assert deterministic(hit) == deterministic(cold)
        assert cache.stats()["result_cache_hits"] == 1

    def test_hit_reports_this_requests_identity(self):
        cache = ResultCache()
        native = QuantumCircuit(3, name="native").h(0).swap(0, 2)
        spelled = (QuantumCircuit(3, name="spelled").h(0)
                   .cx(0, 2).cx(2, 0).cx(0, 2))
        repro.run(native, engine="bitslice", cache=cache)
        hit = repro.run(spelled, engine="bdd", cache=cache)
        assert hit.extra.get("cache_hit") == 1
        assert hit.circuit_name == "spelled"
        assert hit.num_gates == spelled.num_gates
        assert hit.requested_engine == "bdd"

    def test_unseeded_sampling_bypasses_the_cache(self):
        circuit = ghz().measure_all()
        cache = ResultCache()
        repro.run(circuit, engine="bitslice", shots=64, cache=cache)
        again = repro.run(circuit, engine="bitslice", shots=64, cache=cache)
        assert len(cache) == 0
        assert "cache_hit" not in again.extra

    def test_auto_request_keys_on_resolved_engine(self):
        # A Clifford circuit resolves "auto" to the stabilizer engine; an
        # explicit "stabilizer" request must share the entry.
        circuit = ghz()
        cache = ResultCache()
        cold = repro.run(circuit, engine="auto", cache=cache)
        hit = repro.run(circuit, engine="stabilizer", cache=cache)
        assert cold.engine == "stabilizer"
        assert hit.extra.get("cache_hit") == 1

    def test_hits_are_independent_copies(self):
        circuit = ghz()
        cache = ResultCache()
        repro.run(circuit, engine="bitslice", cache=cache)
        first = repro.run(circuit, engine="bitslice", cache=cache)
        first.extra["mutated"] = 1.0
        second = repro.run(circuit, engine="bitslice", cache=cache)
        assert "mutated" not in second.extra


class TestBounds:
    @staticmethod
    def _result(tag):
        return RunResult(engine="bitslice", circuit_name=tag, num_qubits=2,
                         num_gates=1, status="ok", final_probability=0.5)

    @staticmethod
    def _key(tag):
        return (tag, "bitslice", None, None, None, (60.0, 500_000, 24))

    def test_entry_bound_evicts_lru(self):
        cache = ResultCache(max_entries=2)
        for tag in ("a", "b", "c"):
            cache.store(self._key(tag), self._result(tag))
        assert len(cache) == 2
        assert self._key("a") not in cache
        assert cache.stats()["result_cache_evictions"] == 1

    def test_lookup_refreshes_recency(self):
        cache = ResultCache(max_entries=2)
        cache.store(self._key("a"), self._result("a"))
        cache.store(self._key("b"), self._result("b"))
        assert cache.lookup(self._key("a")) is not None
        cache.store(self._key("c"), self._result("c"))
        assert self._key("a") in cache
        assert self._key("b") not in cache

    def test_byte_bound_evicts_and_rejects(self):
        small = ResultCache(max_bytes=1)
        assert not small.store(self._key("a"), self._result("a"))
        assert len(small) == 0
        sized = ResultCache(max_bytes=400)
        sized.store(self._key("a"), self._result("a"))
        sized.store(self._key("b"), self._result("b"))
        assert sized.total_bytes <= 400

    def test_non_ok_statuses_are_not_stored(self):
        cache = ResultCache()
        timeout = self._result("t")
        timeout.status = STATUS_TIMEOUT
        assert not cache.store(self._key("t"), timeout)
        assert len(cache) == 0

    def test_clear_keeps_counters(self):
        cache = ResultCache()
        cache.store(self._key("a"), self._result("a"))
        cache.lookup(self._key("a"))
        cache.clear()
        assert len(cache) == 0
        assert cache.total_bytes == 0
        assert cache.stats()["result_cache_hits"] == 1

    def test_thread_safety_smoke(self):
        cache = ResultCache(max_entries=8)
        errors = []

        def worker(tag):
            try:
                for i in range(50):
                    key = self._key(f"{tag}-{i % 12}")
                    cache.store(key, self._result(tag))
                    cache.lookup(key)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(str(t),))
                   for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) <= 8


class TestSweeps:
    def test_run_tasks_serial_uses_cache(self):
        cache = ResultCache()
        tasks = [("bitslice", ghz()), ("bitslice", ghz())]
        first = repro.engines.run_tasks(tasks, cache=cache)
        assert "cache_hit" not in first[0].extra
        assert first[1].extra.get("cache_hit") == 1
        assert deterministic(first[0]) == deterministic(first[1])

    def test_run_sweep_parallel_parent_side_cache(self):
        cache = ResultCache()
        circuits = [ghz(name=f"g{i}") for i in range(3)]
        serial = repro.run_sweep(circuits, engines=["bitslice"], cache=cache)
        parallel = repro.run_sweep(circuits, engines=["bitslice"], jobs=2,
                                   cache=cache)
        assert all(r.extra.get("cache_hit") == 1 for r in parallel)
        assert ([deterministic(r) for r in serial]
                == [deterministic(r) for r in parallel])

    def test_parallel_duplicate_keys_dispatch_once(self):
        cache = ResultCache()
        circuits = [ghz(name=f"dup{i}") for i in range(4)]
        results = repro.run_sweep(circuits, engines=["bitslice"], jobs=2,
                                  cache=cache)
        stats = cache.stats()
        assert stats["result_cache_stores"] == 1
        # Each hit is rebranded with its own request's circuit name; every
        # other deterministic field replays the single dispatched run.
        payloads = []
        for result in results:
            data = result.to_dict(timings=False)
            assert data.pop("circuit").startswith("dup")
            payloads.append(json.dumps(data, sort_keys=True))
        assert len(set(payloads)) == 1
