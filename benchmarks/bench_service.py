"""Smoke benchmarks for the simulation service (wire overhead + warm sessions).

Two service guarantees are gated here with in-benchmark assertions:

* ``test_service_roundtrip_overhead`` — a full wire round trip (encode
  request, TCP to a live ``repro-serve`` loop, scheduler hand-off, encode
  reply) must stay cheap: the steady-state served run is asserted to cost
  at most 250 ms.  Both sides are warm — the served run is a hit in the
  server's result cache, the direct in-process ``repro.run()`` a hit in a
  local one — so their signed difference, recorded as an informational
  float, is the wire's cost and nothing else.
* ``test_service_warm_session_append`` — the service's reason to exist:
  appending one gate to a warm server-side session (prefix resume +
  wire) must be at least **2x** faster than a cold local run of the full
  base circuit.

The session benchmark uses ``benchmark.pedantic`` with a fixed round
count: every append advances the session's cumulative circuit, so an
adaptive round count would make the deposited prefix depth — and the
per-round payload — machine-dependent.  Only round-count-independent
integers go into ``extra_info`` (the regression gate pins those exactly);
measured speedups are informational floats.
"""

from __future__ import annotations

import time

import pytest

import repro
from repro import Client, QuantumCircuit, ResultCache
from repro.engines import ResourceLimits
from repro.service import serve_background

LIMITS = ResourceLimits(max_seconds=60.0, max_nodes=200_000)
SHOTS = 256
SEED = 23
#: Warm direct calls timed for the round trip's local side (each one is a
#: result-cache hit of a few hundred microseconds).
ROUNDTRIP_REPEATS = 50

#: Small request workload for the round-trip benchmark: the server memoises
#: it after the first call, so steady-state rounds measure the wire, not
#: the engine.
ROUNDTRIP = QuantumCircuit(8, name="service_roundtrip").h(0)
for _qubit in range(7):
    ROUNDTRIP.cx(_qubit, _qubit + 1)
ROUNDTRIP.t(3).h(3)
ROUNDTRIP.measure_all()

#: Session base: GHZ backbone with non-Clifford tails (the bench_cache
#: workload at 12 qubits) — a cold run does real BDD work, an appended
#: gate against the warm session does almost none.
BASE = QuantumCircuit(12, name="service_base").h(0)
for _qubit in range(11):
    BASE.cx(_qubit, _qubit + 1)
BASE.t(2).h(2).t(5).h(5).t(8).h(8).t(10)
#: Four compute/uncompute CX ladders after the prefix: a deep base circuit,
#: so the cold run being raced is a long one, while the state the append
#: acts on (and so the append's own cost) is that of the prefix.
for _round in range(4):
    for _qubit in range(11):
        BASE.cx(_qubit, _qubit + 1)
    for _qubit in reversed(range(11)):
        BASE.cx(_qubit, _qubit + 1)


def _best_of(callable_, repeats=3):
    """Best-of-N wall-clock seconds of one call (jitter-resistant cold
    reference for the speedup assertions)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = callable_()
        best = min(best, time.perf_counter() - start)
    return best, result


@pytest.fixture(scope="module")
def service():
    """One live server + connected client shared by the module."""
    with serve_background(workers=2, queue_depth=16,
                          default_limits=LIMITS) as background:
        with Client(background.address) as client:
            yield client


def test_service_roundtrip_overhead(benchmark, service):
    """Warm served run vs warm direct in-process ``repro.run()``."""
    cache = ResultCache()

    def direct_run():
        return repro.run(ROUNDTRIP, engine="bitslice", limits=LIMITS,
                         shots=SHOTS, seed=SEED, cache=cache)

    def served():
        return service.run(ROUNDTRIP, engine="bitslice", shots=SHOTS,
                           seed=SEED)

    # One cold call each fills both caches; every timed call is a hit.
    direct_run()
    served()
    direct_seconds, direct = _best_of(direct_run, repeats=ROUNDTRIP_REPEATS)
    assert direct.extra.get("cache_hit") == 1
    result = benchmark(served)
    assert result.status == "ok"
    assert result.extra.get("cache_hit") == 1
    # The wire adds no lossy re-encoding: the served record is
    # byte-identical to the direct one.
    assert result.to_dict(timings=False) == direct.to_dict(timings=False)
    served_seconds = benchmark.stats.stats.min
    assert served_seconds < 0.25, (
        f"wire round trip took {served_seconds * 1e3:.1f} ms")
    benchmark.extra_info["status"] = result.status
    benchmark.extra_info["distinct_outcomes"] = len(result.counts)
    benchmark.extra_info["roundtrip_overhead_ms"] = round(
        (served_seconds - direct_seconds) * 1e3, 3)
    benchmark.extra_info["direct_ms"] = round(direct_seconds * 1e3, 3)


def test_service_warm_session_append(benchmark, service):
    """One-gate append to a warm server session vs a cold local full run."""
    cold_seconds, cold = _best_of(
        lambda: repro.run(BASE, engine="bitslice", limits=LIMITS))
    assert cold.status == "ok"
    session_id = service.open_session(BASE.num_qubits, engine="bitslice")
    seeded = service.append(session_id, BASE)
    assert seeded.status == "ok"
    assert seeded.final_probability == cold.final_probability

    def append_one_gate():
        delta = QuantumCircuit(BASE.num_qubits, name="service_append").t(0)
        return service.append(session_id, delta)

    # Fixed rounds: every append advances the cumulative circuit, so the
    # deposited depth must not depend on an adaptive round count.
    result = benchmark.pedantic(append_one_gate, rounds=10, iterations=1,
                                warmup_rounds=1)
    assert result.status == "ok"
    assert result.extra.get("resumed_from_depth", 0) >= BASE.num_gates
    warm_seconds = benchmark.stats.stats.min
    speedup = cold_seconds / warm_seconds
    assert speedup >= 2.0, (
        f"warm session append only {speedup:.2f}x faster than a cold "
        f"local run ({warm_seconds:.6f}s vs {cold_seconds:.6f}s)")
    appends = service.close_session(session_id)
    assert appends == 12  # base + 1 warmup + 10 measured rounds
    benchmark.extra_info["status"] = result.status
    benchmark.extra_info["base_gates"] = BASE.num_gates
    benchmark.extra_info["warm_append_speedup"] = round(speedup, 2)
