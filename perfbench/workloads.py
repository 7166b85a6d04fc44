"""The benchmark's three workloads: their seeded inputs and their passes.

Every workload is closed loop in one process with ``jobs=1``.

* ``paper-rows`` — cold ``repro.run(circuit, engine="bitslice")`` on rows
  of the paper's families (Table III random circuits, Table VI GRCS
  lattices, the Table IV H-modified Cuccaro adder), sized so each row runs
  in under a second.
* ``sampled-grcs`` — the same front door with ``shots=256``.
* ``service-mix`` — one ``Client`` connection to an in-process server,
  sending run misses, cache hits, sample requests and session appends in a
  seeded order.

A pass is cut into chunks (a batch row, or :data:`SERVICE_CHUNK`
consecutive service requests), and a timed pass runs the calibration loop
of ``calibration.py`` before each chunk and once more after the last.
Rows are kept under a second so the loops around a row see the speed the
row runs at.

The default seed (0) gives exactly the rows above.  Any other seed appends
one X gate on a seeded top qubit to every batch row, so the final query (and
the sampled histogram) reads another basis outcome while the BDD work stays
the same: complementing one variable maps the bit-sliced state onto an
isomorphic node graph, so ``peak_memory_nodes`` is unchanged.  That keeps
runs under different seeds comparable, which a fresh draw of random
circuits would not (their cost differs several-fold).  On ``service-mix``
the seed draws the request order, which earlier requests repeat and which
gates are appended; the circuits themselves are the same for every seed.
"""

from __future__ import annotations

import gc
import random
import time
from dataclasses import dataclass, field
from typing import List, Optional

import repro
from calibration import calibration_seconds
from repro import QuantumCircuit
from repro.engines import frontdoor
from repro.workloads.random_circuits import generate_random_circuit
from repro.workloads.revlib import h_augment, revlib_suite, ripple_carry_adder
from repro.workloads.supremacy import grcs_circuit

DEFAULT_SEED = 0
SMALL_REVLIB_QUBITS = 16
POOL_SEED = 70000
FLIP_QUBITS = 4
WORKLOADS = ("paper-rows", "sampled-grcs", "service-mix")
#: Consecutive service-mix requests timed against one calibration loop.
SERVICE_CHUNK = 25


def _seeded_outcome(circuit: QuantumCircuit, seed: int,
                    index: int) -> QuantumCircuit:
    """Append the seed's X gate to row ``index`` (none for the default).

    The X lands on one of the top :data:`FLIP_QUBITS` variables: flipping a
    variable rebuilds every node above its level, so a low variable would
    add a seed-dependent share of a whole gate to the row.
    """
    if seed != DEFAULT_SEED:
        rng = random.Random(f"{seed}:{index}")
        circuit.x(rng.randrange(min(FLIP_QUBITS, circuit.num_qubits)))
    return circuit


def paper_rows_circuits(seed: int, quick: bool = False) -> List[QuantumCircuit]:
    if quick:
        rows = [generate_random_circuit(n, seed=1000 * n + s)
                for n in (6, 8) for s in range(2)]
        rows += [grcs_circuit(3, 3, depth=5, seed=0),
                 h_augment(*ripple_carry_adder(3))]
    else:
        rows = [generate_random_circuit(n, seed=1000 * n + s)
                for n in (16, 18) for s in range(2)]
        rows += [generate_random_circuit(20, seed=20000),
                 grcs_circuit(4, 4, depth=5, seed=0),
                 grcs_circuit(4, 5, depth=4, seed=0),
                 h_augment(*ripple_carry_adder(10))]
    return [_seeded_outcome(c, seed, i) for i, c in enumerate(rows)]


def sampled_grcs_circuits(seed: int, quick: bool = False) -> List[QuantumCircuit]:
    if quick:
        rows = [grcs_circuit(3, 3, depth=5, seed=0),
                generate_random_circuit(6, seed=6000)]
    else:
        rows = [grcs_circuit(3, 4, depth=5, seed=0),
                grcs_circuit(3, 4, depth=5, seed=1),
                generate_random_circuit(16, seed=16000)]
    return [_seeded_outcome(c, seed, i) for i, c in enumerate(rows)]


def session_base() -> QuantumCircuit:
    """The warm session's structured base: a GHZ chain with a few T/H
    (the base of ``benchmarks/bench_service.py``)."""
    base = QuantumCircuit(12, name="service_base").h(0)
    for qubit in range(11):
        base.cx(qubit, qubit + 1)
    return base.t(2).h(2).t(5).h(5).t(8).h(8).t(10)


@dataclass
class Request:
    kind: str                       # "miss", "hit", "sample" or "append"
    circuit: QuantumCircuit
    seed: Optional[int] = None      # sampling seed of a "sample" request


def service_plan(seed: int, quick: bool = False) -> List[Request]:
    """One pass of ``service-mix``: 40 % run misses on distinct circuits,
    40 % repeats of recent misses, 10 % ``shots=256`` samples and 10 %
    one-gate (T, S or CX) appends to the warm session.

    The misses are the RevLib originals and H-modified variants of at most
    :data:`SMALL_REVLIB_QUBITS` qubits plus 10-12 q random circuits.  The
    wider RevLib rows (``add8``, ``alu8``, ``cpu_ctrl4``, ``register4x4``,
    ``add16``) are left out: ``engine="auto"`` sends them to the dense
    engine, where each costs 40-550 ms and the mix would measure that
    engine instead of the service around it.

    Every seed sends the same misses, samples and appended gates (drawn
    from :data:`POOL_SEED`), so every seed's pass does the same work; the
    seed draws their order, where the hits fall and what they repeat.
    """
    rng, fixed = random.Random(seed), random.Random(POOL_SEED)
    total = 40 if quick else 1000
    n_miss, n_hit = total * 4 // 10, total * 4 // 10
    n_sample = total // 10
    n_append = total - n_miss - n_hit - n_sample
    families = ["alu4", "nested_if6"] if quick else None
    pool = [c for _, original, modified, _ in revlib_suite(families)
            if original.num_qubits <= SMALL_REVLIB_QUBITS
            for c in (original, modified)]
    widths = (6, 7, 8) if quick else (10, 11, 12)
    for index in range(n_miss - len(pool)):
        pool.append(generate_random_circuit(widths[index % 3],
                                            seed=POOL_SEED + index))
    base = session_base()
    sampled = fixed.sample(pool, n_sample)
    appended = []
    for _ in range(n_append):
        gate = fixed.choice("tsc")
        qubits = (fixed.sample(range(base.num_qubits), 2) if gate == "c"
                  else [fixed.randrange(base.num_qubits)])
        appended.append((gate, qubits))
    rng.shuffle(pool)
    rng.shuffle(sampled)
    kinds = (["miss"] * n_miss + ["hit"] * n_hit + ["sample"] * n_sample
             + ["append"] * n_append)
    rng.shuffle(kinds)
    first_miss = kinds.index("miss")
    kinds[0], kinds[first_miss] = kinds[first_miss], kinds[0]
    plan: List[Request] = []
    issued: List[QuantumCircuit] = []
    for index, kind in enumerate(kinds):
        if kind == "miss":
            circuit = pool[len(issued)]
            issued.append(circuit)
            plan.append(Request("miss", circuit))
        elif kind == "hit":
            plan.append(Request("hit", rng.choice(issued[-64:])))
        elif kind == "sample":
            plan.append(Request("sample", sampled.pop(), seed=index))
        else:
            delta = QuantumCircuit(base.num_qubits, name=f"append_{index}")
            gate, qubits = appended.pop()
            getattr(delta, "cx" if gate == "c" else gate)(*qubits)
            plan.append(Request("append", delta))
    return plan


def build_inputs(workload: str, seed: int, quick: bool = False):
    """The seeded inputs of ``workload`` (circuits, or the request plan)."""
    if workload == "paper-rows":
        return paper_rows_circuits(seed, quick)
    if workload == "sampled-grcs":
        return sampled_grcs_circuits(seed, quick)
    if workload == "service-mix":
        return service_plan(seed, quick)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


@dataclass
class PassResult:
    wall_s: float
    latencies_s: List[float] = field(default_factory=list)
    calibration_s: List[float] = field(default_factory=list)
    kinds: List[str] = field(default_factory=list)
    results: list = field(default_factory=list)


class BatchWorkload:
    """``paper-rows`` and ``sampled-grcs``: one cold front-door call per
    row, one row after another."""

    chunk = 1

    def __init__(self, name: str, seed: int, quick: bool):
        self.name = name
        self.circuits = build_inputs(name, seed, quick)
        if name == "sampled-grcs":
            self.shots, self.sample_seed = (64 if quick else 256), seed
        else:
            self.shots, self.sample_seed = None, None

    def reference_circuits(self) -> List[QuantumCircuit]:
        """The circuit each result of a pass reports on."""
        return self.circuits

    def begin_pass(self) -> None:
        pass

    def run_pass(self, tracer=None, calibrate: bool = False) -> PassResult:
        result = PassResult(wall_s=0.0)
        for circuit in self.circuits:
            # Untimed: free the previous row's BDD store now, so neither
            # this row's time nor the peak resident set depends on when
            # the cyclic collector would have got to it.
            gc.collect()
            if calibrate:
                result.calibration_s.append(calibration_seconds())
            sent = time.perf_counter()
            run = frontdoor.run(circuit, engine="bitslice", shots=self.shots,
                                seed=self.sample_seed)
            result.latencies_s.append(time.perf_counter() - sent)
            result.results.append(run)
        if calibrate:
            result.calibration_s.append(calibration_seconds())
        result.wall_s = sum(result.latencies_s)
        result.kinds = ["run"] * len(result.results)
        return result

    def end_pass(self) -> None:
        pass

    def close(self) -> None:
        pass


class ServiceMix:
    """``service-mix``: the server runs in this process on its own threads
    (``workers=1``); one client connection sends the plan in order."""

    name = "service-mix"
    chunk = SERVICE_CHUNK

    def __init__(self, seed: int, quick: bool):
        self.plan = build_inputs(self.name, seed, quick)
        self.base = session_base()
        self.server = repro.serve_background(workers=1)
        try:
            self.client = repro.Client(self.server.address)
        except Exception:
            self.server.stop()
            raise
        self.session_id: Optional[str] = None

    def reference_circuits(self) -> List[QuantumCircuit]:
        """The circuit each result of a pass reports on: the request's, or
        for a session append the session's cumulative circuit."""
        cumulative = self.base
        circuits = []
        for request in self.plan:
            if request.kind == "append":
                cumulative = cumulative.copy(name=request.circuit.name)
                for gate in request.circuit.gates:
                    cumulative.append(gate)
            circuits.append(cumulative if request.kind == "append"
                            else request.circuit)
        return circuits

    def begin_pass(self) -> None:
        """Untimed: empty the result cache and prefix pool so every pass
        sends the same misses, then open and warm a fresh session."""
        self.server.server.cache.clear()
        self.server.server.session_pool.clear()
        gc.collect()
        self.session_id = self.client.open_session(self.base.num_qubits,
                                                   engine="bitslice")
        self.client.append(self.session_id, self.base)

    def _send(self, request: Request):
        if request.kind == "append":
            return self.client.append(self.session_id, request.circuit)
        if request.kind == "sample":
            return self.client.sample(request.circuit, shots=256,
                                      seed=request.seed)
        return self.client.run(request.circuit)

    def run_pass(self, tracer=None, calibrate: bool = False) -> PassResult:
        result = PassResult(wall_s=0.0)
        for index, request in enumerate(self.plan):
            if calibrate and index % self.chunk == 0:
                result.calibration_s.append(calibration_seconds())
            sent = time.perf_counter()
            if tracer is None:
                reply = self._send(request)
            else:
                span = tracer.open("service.request")
                tracer.request_span = span[0]
                try:
                    reply = self._send(request)
                finally:
                    tracer.request_span = None
                    tracer.close(span)
            result.latencies_s.append(time.perf_counter() - sent)
            result.kinds.append(request.kind)
            result.results.append(reply)
        if calibrate:
            result.calibration_s.append(calibration_seconds())
        result.wall_s = sum(result.latencies_s)
        return result

    def end_pass(self) -> None:
        self.client.close_session(self.session_id)
        self.session_id = None

    def close(self) -> None:
        try:
            self.client.close()
        finally:
            self.server.stop()


def open_workload(name: str, seed: int, quick: bool = False):
    if name == "service-mix":
        return ServiceMix(seed, quick)
    if name in WORKLOADS:
        return BatchWorkload(name, seed, quick)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
