"""The traced pass: spans around each layer's public functions, and the
per-layer metrics computed from them.

Each function is patched where its caller looks it up: module globals that
a caller imported by name (``repro.service.server.run``,
``repro.engines.frontdoor.resolve_engine``, the protocol codecs bound in
``client`` and ``server``) are patched in that caller's module, methods on
their class.  BDD kernel traffic comes from ``BddManager.perf_stats()``
deltas rather than spans: a span per kernel call would cost more than the
kernel.
"""

from __future__ import annotations

import statistics
import weakref
from collections import defaultdict
from typing import Dict, List

from repro.bdd.manager import OP_NAMES, BddManager
from repro.cache.result_cache import ResultCache
from repro.cache.sessions import SessionPool
from repro.core.bitslice import BitSlicedState
from repro.core.gate_rules import GateRuleEngine
from repro.core.measurement import MeasurementEngine
from repro.engines import adapters, base, frontdoor, limits
from repro.service import client, protocol, server

from spans import SPAN_END, SPAN_ID, SPAN_NAME, SPAN_PARENT, SPAN_START, \
    Patcher, Tracer, self_times

#: Gate kinds the workloads apply; each gets an apply time and call count.
GATE_KINDS = ("x", "y", "z", "h", "s", "t", "rx_pi_2", "ry_pi_2", "cx",
              "cz", "ccx", "cswap")

#: ``BddManager.perf_stats()`` counters summed as deltas over a pass.
_COUNTERS = (("unique_probes", "unique_probes"),
             ("unique_inserts", "unique_inserts"),
             ("cache_hits", "cache_hits"),
             ("cache_misses", "cache_misses"),
             ("gc_runs", "gc_runs"),
             ("sift_runs", "reorder_count")) + tuple(
    (f"cache_{op}_{side}", f"cache_{op}_{side}")
    for op in OP_NAMES for side in ("hits", "misses"))

SERVICE_KINDS = ("miss", "hit", "sample", "append")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _p50_ms(values: List[float]) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


#: Every per-layer metric with its unit, in report order.
LAYER_METRICS = (
    [("frontdoor.self_s", "s"), ("registry.resolve_s", "s"),
     ("cache.lookup_s", "s"), ("cache.hits", "count"),
     ("cache.misses", "count"), ("sessions.match_s", "s"),
     ("sessions.prefix_hits", "count"), ("sessions.prefix_misses", "count"),
     ("limits.check_s", "s"), ("limits.check_calls", "count")]
    + [(f"gate_rules.apply_s.{kind}", "s") for kind in GATE_KINDS]
    + [(f"gate_rules.apply_calls.{kind}", "count") for kind in GATE_KINDS]
    + [("gate_rules.widen_frac", "ratio"),
       ("bdd.unique_probes", "count"), ("bdd.unique_inserts", "count"),
       ("bdd.cache_hits", "count"), ("bdd.cache_misses", "count"),
       ("bdd.cache_hit_rate", "ratio")]
    + [(f"bdd.cache_{op}_hit_rate", "ratio") for op in OP_NAMES]
    + [("bdd.peak_live_nodes", "count"),
       ("bdd.count_nodes_s.limits", "s"), ("bdd.count_nodes_s.peak", "s"),
       ("bdd.count_nodes_calls.limits", "count"),
       ("bdd.count_nodes_calls.peak", "count"),
       ("bdd.gc_s", "s"), ("bdd.gc_runs", "count"),
       ("bdd.sift_s", "s"), ("bdd.sift_runs", "count"),
       ("bitslice.shrink_s", "s"),
       ("measurement.query_s", "s"), ("measurement.hyperfunction_s", "s"),
       ("sampling.sample_s", "s"), ("sampling.restrict_batches", "count"),
       ("baselines.engine_s", "s"),
       ("protocol.encode_s", "s"), ("protocol.decode_s", "s"),
       ("protocol.bytes", "bytes"),
       ("service.wire_overhead_ms.p50", "ms")]
    + [(f"service.{kind}_ms.p50", "ms") for kind in SERVICE_KINDS]
    + [("trace.wall_s", "s"), ("trace.overhead_frac", "ratio")])


class ManagerLedger:
    """Per-pass deltas of every BDD manager's ``perf_stats()``.

    Managers register on construction (the hook is installed for the whole
    traced run, so managers built before a pass — the warm session's — are
    known).  A pass starts by taking each live manager's counters as its
    baseline; managers built during the pass start from zero.  Counters are
    harvested whenever the bit-sliced engine reports statistics (the end of
    every run, while its manager is still alive) and once more at pass end.
    """

    def __init__(self) -> None:
        self._baseline: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self.totals: Dict[str, float] = defaultdict(float)
        self.peak_live_nodes = 0

    def register(self, patcher: Patcher) -> None:
        ledger = self

        def make(original):
            def __init__(self, *args, **kwargs):
                original(self, *args, **kwargs)
                ledger._baseline[self] = None
            return __init__
        patcher.replace(BddManager, "__init__", make)

    def begin_pass(self) -> None:
        self.totals = defaultdict(float)
        self.peak_live_nodes = 0
        for manager in list(self._baseline.keys()):
            self._baseline[manager] = manager.perf_stats()

    def harvest(self, manager) -> None:
        if manager not in self._baseline:
            return
        now = manager.perf_stats()
        before = self._baseline[manager] or {}
        for name, key in _COUNTERS:
            self.totals[name] += now[key] - before.get(key, 0)
        self.peak_live_nodes = max(self.peak_live_nodes,
                                   int(now["peak_live_nodes"]))
        self._baseline[manager] = now

    def end_pass(self) -> None:
        for manager in list(self._baseline.keys()):
            self.harvest(manager)


def _gate_span_name(_engine, gate, *rest):
    return f"gate_rules.apply.{gate.kind.value}"


def instrument(patcher: Patcher, tracer: Tracer, ledger: ManagerLedger) -> None:
    """Install the spans of one traced pass (undone by ``patcher``)."""
    span = patcher.span

    def count(name):
        def on_call(args, result):
            tracer.counters[name] += 1
        return on_call

    def count_encoded(args, result):
        tracer.counters["protocol.bytes"] += len(result)

    def count_decoded(args, result):
        tracer.counters["protocol.bytes"] += len(args[0])

    def harvest_stats(original):
        def statistics_(self):
            stats = original(self)
            ledger.harvest(self._simulator.state.manager)
            return stats
        return statistics_

    span(tracer, frontdoor, "run", "frontdoor.run")
    span(tracer, server, "run", "frontdoor.run")
    span(tracer, frontdoor, "resolve_engine", "registry.resolve")
    span(tracer, ResultCache, "lookup", "cache.lookup")
    span(tracer, SessionPool, "match", "sessions.match")
    span(tracer, limits.LimitEnforcer, "check", "limits.check")
    span(tracer, GateRuleEngine, "apply", _gate_span_name)
    span(tracer, BitSlicedState, "widen", "bitslice.widen",
         on_call=count("bitslice.widen_calls"))
    span(tracer, BitSlicedState, "shrink", "bitslice.shrink")
    span(tracer, BddManager, "count_nodes", "bdd.count_nodes")
    for attr in ("maybe_collect", "garbage_collect"):
        span(tracer, BddManager, attr, "bdd.gc")
    for attr in ("maybe_reorder", "sift"):
        span(tracer, BddManager, attr, "bdd.sift")
    span(tracer, MeasurementEngine, "probability_of_outcome",
         "measurement.query")
    span(tracer, MeasurementEngine, "build_hyperfunction",
         "measurement.hyperfunction")
    span(tracer, adapters.BitSliceEngine, "sample", "sampling.sample")
    patcher.replace(adapters.BitSliceEngine, "statistics", harvest_stats)
    for engine in (adapters.StatevectorEngine, adapters.StabilizerEngine,
                   adapters.QmddEngine):
        for attr in ("prepare", "apply", "probability"):
            span(tracer, engine, attr, "baselines.engine", reentrant=False)
    span(tracer, base.Engine, "sample", "baselines.engine", reentrant=False)
    span(tracer, client, "encode_message", "protocol.encode",
         on_call=count_encoded)
    span(tracer, server, "encode_message", "protocol.encode",
         on_call=count_encoded)
    span(tracer, client, "decode_response", "protocol.decode",
         on_call=count_decoded)
    span(tracer, protocol, "decode_request", "protocol.decode",
         on_call=count_decoded)


def _cache_counters(workload) -> Dict[str, float]:
    service = getattr(workload, "server", None)
    if service is None:
        return {}
    stats = dict(service.server.cache.stats())
    stats.update(service.server.session_pool.stats())
    return stats


def layer_metrics(tracer: Tracer, ledger: ManagerLedger, pass_result,
                  before: Dict[str, float], after: Dict[str, float],
                  untraced_wall: float) -> Dict[str, float]:
    """Per-layer metrics of one traced pass."""
    spans = tracer.spans
    own = self_times(spans)
    by_id = {span[SPAN_ID]: span for span in spans}
    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for span in spans:
        self_s[span[SPAN_NAME]] += own[span[SPAN_ID]]
        calls[span[SPAN_NAME]] += 1
    walks = {"limits": [0.0, 0], "peak": [0.0, 0]}
    overheads: List[float] = []
    server_run: Dict[int, float] = defaultdict(float)
    for span in spans:
        name = span[SPAN_NAME]
        parent = by_id.get(span[SPAN_PARENT])
        if name == "bdd.count_nodes":
            side = walks["limits" if parent is not None
                         and parent[SPAN_NAME] == "limits.check" else "peak"]
            side[0] += own[span[SPAN_ID]]
            side[1] += 1
        elif (name == "frontdoor.run" and parent is not None
              and parent[SPAN_NAME] == "service.request"):
            server_run[parent[SPAN_ID]] += span[SPAN_END] - span[SPAN_START]
    for span in spans:
        if span[SPAN_NAME] == "service.request":
            overheads.append(span[SPAN_END] - span[SPAN_START]
                             - server_run[span[SPAN_ID]])

    def delta(key: str) -> float:
        return after.get(key, 0) - before.get(key, 0)

    totals = ledger.totals
    apply_calls = sum(calls[f"gate_rules.apply.{kind}"]
                      for kind in GATE_KINDS)
    metrics = {
        "frontdoor.self_s": self_s["frontdoor.run"],
        "registry.resolve_s": self_s["registry.resolve"],
        "cache.lookup_s": self_s["cache.lookup"],
        "cache.hits": delta("result_cache_hits"),
        "cache.misses": delta("result_cache_misses"),
        "sessions.match_s": self_s["sessions.match"],
        "sessions.prefix_hits": delta("prefix_resume_hits"),
        "sessions.prefix_misses": delta("prefix_resume_misses"),
        "limits.check_s": self_s["limits.check"],
        "limits.check_calls": calls["limits.check"],
    }
    for kind in GATE_KINDS:
        metrics[f"gate_rules.apply_s.{kind}"] = self_s[f"gate_rules.apply.{kind}"]
        metrics[f"gate_rules.apply_calls.{kind}"] = calls[f"gate_rules.apply.{kind}"]
    metrics["gate_rules.widen_frac"] = _ratio(
        tracer.counters["bitslice.widen_calls"], apply_calls)
    for name in ("unique_probes", "unique_inserts", "cache_hits",
                 "cache_misses"):
        metrics[f"bdd.{name}"] = totals[name]
    metrics["bdd.cache_hit_rate"] = _ratio(
        totals["cache_hits"], totals["cache_hits"] + totals["cache_misses"])
    for op in OP_NAMES:
        hits, misses = totals[f"cache_{op}_hits"], totals[f"cache_{op}_misses"]
        metrics[f"bdd.cache_{op}_hit_rate"] = _ratio(hits, hits + misses)
    metrics.update({
        "bdd.peak_live_nodes": ledger.peak_live_nodes,
        "bdd.count_nodes_s.limits": walks["limits"][0],
        "bdd.count_nodes_s.peak": walks["peak"][0],
        "bdd.count_nodes_calls.limits": walks["limits"][1],
        "bdd.count_nodes_calls.peak": walks["peak"][1],
        "bdd.gc_s": self_s["bdd.gc"],
        "bdd.gc_runs": totals["gc_runs"],
        "bdd.sift_s": self_s["bdd.sift"],
        "bdd.sift_runs": totals["sift_runs"],
        "bitslice.shrink_s": self_s["bitslice.shrink"],
        "measurement.query_s": self_s["measurement.query"],
        "measurement.hyperfunction_s": self_s["measurement.hyperfunction"],
        "sampling.sample_s": self_s["sampling.sample"],
        "sampling.restrict_batches": sum(
            run.extra.get("sampler_restrict_batches", 0)
            for run in pass_result.results),
        "baselines.engine_s": self_s["baselines.engine"],
        "protocol.encode_s": self_s["protocol.encode"],
        "protocol.decode_s": self_s["protocol.decode"],
        "protocol.bytes": tracer.counters["protocol.bytes"],
        "service.wire_overhead_ms.p50": _p50_ms(overheads),
        "trace.wall_s": pass_result.wall_s,
        "trace.overhead_frac": pass_result.wall_s / untraced_wall - 1.0,
    })
    for kind in SERVICE_KINDS:
        metrics[f"service.{kind}_ms.p50"] = _p50_ms(
            [latency for latency, k in zip(pass_result.latencies_s,
                                           pass_result.kinds) if k == kind])
    return metrics


def traced_pass(workload, ledger: ManagerLedger, untraced_wall: float):
    """Run one traced pass; returns ``(pass_result, metrics, spans)``."""
    tracer = Tracer()
    workload.begin_pass()
    before = _cache_counters(workload)
    ledger.begin_pass()
    with Patcher() as patcher:
        instrument(patcher, tracer, ledger)
        result = workload.run_pass(tracer)
    ledger.end_pass()
    after = _cache_counters(workload)
    workload.end_pass()
    metrics = layer_metrics(tracer, ledger, result, before, after,
                            untraced_wall)
    return result, metrics, tracer.spans
