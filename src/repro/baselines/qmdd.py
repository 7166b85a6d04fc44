"""QMDD-style edge-weighted decision diagram simulator (DDSIM stand-in).

The paper's main comparison point is DDSIM (Zulehner/Wille), which represents
state vectors and gate matrices as decision diagrams whose edges carry
floating-point complex weights.  DDSIM itself is a C++ artefact; this module
reimplements the same data structure and algorithms in Python so that the
qualitative comparison of the paper — speed on shallow circuits, memory
blow-up on entangling RevLib variants, and *numerical error accumulation* on
deep superposition circuits — is exercised by the same mechanisms:

* vector nodes have two outgoing weighted edges, matrix nodes have four;
* edge weights are normalised (largest-magnitude child weight becomes 1) and
  interned in a complex table with a configurable tolerance, which is exactly
  where precision loss creeps in;
* gates are applied by building the gate's matrix DD and running the
  recursive matrix-vector multiplication with an operation cache;
* after every gate the squared norm of the state is checked; when it drifts
  from 1 beyond ``error_threshold`` the simulator raises
  :class:`~repro.exceptions.NumericalError`, reproducing the "error" column
  of the paper's Tables III and V.

Qubit 0 is the most significant bit of a basis index, like everywhere else in
the repository.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.gates import Gate, GateKind, gate_matrix
from repro.exceptions import (
    NumericalError,
    SimulationMemoryExceeded,
    SimulationTimeout,
    UnsupportedGateError,
)

#: Sentinel node id of the terminal node.
_TERMINAL = 0


@dataclass(frozen=True)
class Edge:
    """A weighted edge: complex weight times the function of a node."""

    weight: complex
    node: int

    def is_zero(self) -> bool:
        """True for any edge whose weight is zero (the zero function)."""
        return self.weight == 0


#: The canonical zero edge.
_ZERO_EDGE = Edge(0j, _TERMINAL)


class QmddSimulator:
    """Decision-diagram simulation with complex edge weights.

    Parameters
    ----------
    num_qubits:
        Register size.
    initial_state:
        Basis state to start in.
    tolerance:
        Complex-number interning tolerance.  Two weights closer than this are
        considered equal, which keeps diagrams small but loses precision —
        the trade-off the paper criticises.
    error_threshold:
        Maximum tolerated drift of the state norm from 1 before a
        :class:`NumericalError` is raised (the paper's "error" outcome).
    max_nodes:
        Optional cap on live vector nodes (the paper's MO limit).
    max_seconds:
        Optional wall-clock budget checked between gates (the paper's TO).
    """

    def __init__(self, num_qubits: int, initial_state: int = 0,
                 tolerance: float = 1e-12, error_threshold: float = 1e-6,
                 max_nodes: Optional[int] = None, max_seconds: Optional[float] = None):
        if num_qubits <= 0:
            raise ValueError("need at least one qubit")
        self.num_qubits = num_qubits
        self.tolerance = tolerance
        self.error_threshold = error_threshold
        self.max_nodes = max_nodes
        self.max_seconds = max_seconds
        self._start_time = time.perf_counter()
        self.gates_applied = 0

        # Vector node store: parallel lists (level, low_edge, high_edge).
        self._vec_level: List[int] = [-1]
        self._vec_edges: List[Tuple[Edge, Edge]] = [(Edge(0, 0), Edge(0, 0))]
        self._vec_unique: Dict[Tuple, int] = {}
        # Matrix node store for gate DDs (rebuilt per gate, kept small).
        self._mat_level: List[int] = [-1]
        self._mat_edges: List[Tuple[Edge, Edge, Edge, Edge]] = [
            (Edge(0, 0),) * 4]
        self._mat_unique: Dict[Tuple, int] = {}
        # Operation caches.
        self._mult_cache: Dict[Tuple, Edge] = {}
        self._add_cache: Dict[Tuple, Edge] = {}
        self.peak_nodes = 1

        self._root = self._basis_edge(initial_state)

    # ------------------------------------------------------------------ #
    # complex interning (the precision-loss mechanism)
    # ------------------------------------------------------------------ #
    def _intern(self, value: complex) -> complex:
        """Snap a complex weight onto the tolerance grid.

        DDSIM keeps a table of distinct complex numbers and reuses an
        existing entry when a new value is within tolerance; rounding to a
        grid has the same canonicalising effect and the same rounding error.
        """
        if value == 0:
            return 0j
        if self.tolerance <= 0:
            return value
        grid = self.tolerance
        real = round(value.real / grid) * grid
        imag = round(value.imag / grid) * grid
        return complex(real, imag)

    # ------------------------------------------------------------------ #
    # vector node construction
    # ------------------------------------------------------------------ #
    def _vec_node(self, level: int, low: Edge, high: Edge) -> Edge:
        """Create (or reuse) a normalised vector node and return the edge
        pointing at it (carrying the normalisation factor)."""
        if low.is_zero():
            low = _ZERO_EDGE
        if high.is_zero():
            high = _ZERO_EDGE
        if low.is_zero() and high.is_zero():
            return _ZERO_EDGE
        if low == high:
            # Redundant node: both branches carry the identical function.
            return low
        # Normalise: the larger-magnitude child weight becomes 1.
        magnitude_low = abs(low.weight)
        magnitude_high = abs(high.weight)
        norm = low.weight if magnitude_low >= magnitude_high else high.weight
        low_weight = self._intern(low.weight / norm)
        high_weight = self._intern(high.weight / norm)
        key = (level, low_weight, low.node, high_weight, high.node)
        node = self._vec_unique.get(key)
        if node is None:
            node = len(self._vec_level)
            self._vec_level.append(level)
            self._vec_edges.append((Edge(low_weight, low.node), Edge(high_weight, high.node)))
            self._vec_unique[key] = node
            if len(self._vec_level) > self.peak_nodes:
                self.peak_nodes = len(self._vec_level)
        return Edge(norm, node)

    def _basis_edge(self, basis_index: int) -> Edge:
        """The vector DD of the computational basis state ``|basis_index>``."""
        edge = Edge(1.0 + 0j, _TERMINAL)
        for level in range(self.num_qubits - 1, -1, -1):
            bit = (basis_index >> (self.num_qubits - 1 - level)) & 1
            zero = Edge(0j, _TERMINAL)
            if bit:
                edge = self._vec_node(level, zero, edge)
            else:
                edge = self._vec_node(level, edge, zero)
        return edge

    def _vec_children(self, edge: Edge, level: int) -> Tuple[Edge, Edge]:
        """Children of ``edge`` at ``level``, inserting implicit redundant
        nodes when the diagram skips the level."""
        node = edge.node
        if node == _TERMINAL or self._vec_level[node] != level:
            return edge, edge
        low, high = self._vec_edges[node]
        return (Edge(edge.weight * low.weight, low.node),
                Edge(edge.weight * high.weight, high.node))

    # ------------------------------------------------------------------ #
    # matrix (gate) DD construction
    # ------------------------------------------------------------------ #
    def _mat_node(self, level: int, entries: Tuple[Edge, Edge, Edge, Edge]) -> Edge:
        entries = tuple(entry if not entry.is_zero() else _ZERO_EDGE for entry in entries)
        if all(entry.is_zero() for entry in entries):
            return _ZERO_EDGE
        norm = None
        for entry in entries:
            if not entry.is_zero():
                if norm is None or abs(entry.weight) > abs(norm):
                    norm = entry.weight
        normalised = tuple(Edge(self._intern(entry.weight / norm), entry.node)
                           if not entry.is_zero() else _ZERO_EDGE
                           for entry in entries)
        key = (level,) + tuple((entry.weight, entry.node) for entry in normalised)
        node = self._mat_unique.get(key)
        if node is None:
            node = len(self._mat_level)
            self._mat_level.append(level)
            self._mat_edges.append(normalised)
            self._mat_unique[key] = node
        return Edge(norm, node)

    def _gate_dd(self, matrix, target: int, controls: Sequence[int]) -> Edge:
        """Matrix DD of a (multi-)controlled single-qubit gate.

        Levels not involved in the gate are skipped entirely; the implicit
        convention of :meth:`_mat_children` treats a skipped level as the
        identity, so the construction only creates nodes for the target and
        its controls.  Controls are handled on both sides of the target: for
        a control *below* the target the four blocks of the target node are
        built so that the control-0 branch is the identity (diagonal blocks)
        or zero (off-diagonal blocks), matching the standard QMDD gate
        construction.
        """
        one = Edge(1.0 + 0j, _TERMINAL)
        controls_below = sorted((c for c in controls if c > target), reverse=True)
        controls_above = sorted((c for c in controls if c < target), reverse=True)

        # Blocks of the target-level node over the variables below the target.
        blocks: Dict[Tuple[int, int], Edge] = {}
        for i in range(2):
            for j in range(2):
                entry = complex(matrix[i][j])
                blocks[(i, j)] = Edge(entry, _TERMINAL) if entry != 0 else _ZERO_EDGE
        for control in controls_below:
            for i in range(2):
                for j in range(2):
                    block = blocks[(i, j)]
                    if i == j:
                        # control = 0 -> identity block, control = 1 -> gate block.
                        blocks[(i, j)] = self._mat_node(
                            control, (one, _ZERO_EDGE, _ZERO_EDGE, block))
                    else:
                        blocks[(i, j)] = self._mat_node(
                            control, (_ZERO_EDGE, _ZERO_EDGE, _ZERO_EDGE, block))

        result = self._mat_node(target, (blocks[(0, 0)], blocks[(0, 1)],
                                         blocks[(1, 0)], blocks[(1, 1)]))
        for control in controls_above:
            result = self._mat_node(control, (one, _ZERO_EDGE, _ZERO_EDGE, result))
        return result

    def _mat_children(self, edge: Edge, level: int) -> Tuple[Edge, Edge, Edge, Edge]:
        node = edge.node
        if node == _TERMINAL or self._mat_level[node] != level:
            zero = Edge(0j, _TERMINAL)
            return edge, zero, zero, edge
        entries = self._mat_edges[node]
        return tuple(Edge(edge.weight * entry.weight, entry.node) for entry in entries)

    # ------------------------------------------------------------------ #
    # arithmetic on vector DDs
    # ------------------------------------------------------------------ #
    def _add(self, left: Edge, right: Edge, level: int) -> Edge:
        if left.is_zero():
            return right
        if right.is_zero():
            return left
        if level == self.num_qubits:
            return Edge(self._intern(left.weight + right.weight), _TERMINAL)
        key = (left.weight, left.node, right.weight, right.node, level)
        cached = self._add_cache.get(key)
        if cached is not None:
            return cached
        left_low, left_high = self._vec_children(left, level)
        right_low, right_high = self._vec_children(right, level)
        result = self._vec_node(level,
                                self._add(left_low, right_low, level + 1),
                                self._add(left_high, right_high, level + 1))
        self._add_cache[key] = result
        return result

    def _multiply(self, matrix: Edge, vector: Edge, level: int) -> Edge:
        if matrix.is_zero() or vector.is_zero():
            return Edge(0j, _TERMINAL)
        if level == self.num_qubits:
            return Edge(self._intern(matrix.weight * vector.weight), _TERMINAL)
        key = (matrix.weight, matrix.node, vector.weight, vector.node, level)
        cached = self._mult_cache.get(key)
        if cached is not None:
            return cached
        m00, m01, m10, m11 = self._mat_children(matrix, level)
        v0, v1 = self._vec_children(vector, level)
        new_low = self._add(self._multiply(m00, v0, level + 1),
                            self._multiply(m01, v1, level + 1), level + 1)
        new_high = self._add(self._multiply(m10, v0, level + 1),
                             self._multiply(m11, v1, level + 1), level + 1)
        result = self._vec_node(level, new_low, new_high)
        self._mult_cache[key] = result
        return result

    # ------------------------------------------------------------------ #
    # gate application
    # ------------------------------------------------------------------ #
    def _decompose(self, gate: Gate) -> List[Gate]:
        """Rewrite SWAP-style gates into CX/CCX, which the matrix-DD builder
        handles natively."""
        if gate.kind is GateKind.SWAP:
            a, b = gate.targets
            return [Gate(GateKind.CX, (b,), (a,)),
                    Gate(GateKind.CX, (a,), (b,)),
                    Gate(GateKind.CX, (b,), (a,))]
        if gate.kind is GateKind.CSWAP:
            a, b = gate.targets
            controls = gate.controls
            return [Gate(GateKind.CX, (a,), (b,)),
                    Gate(GateKind.CCX, (b,), controls + (a,)),
                    Gate(GateKind.CX, (a,), (b,))]
        return [gate]

    def apply_gate(self, gate: Gate) -> None:
        """Apply one gate to the state DD."""
        if gate.kind is GateKind.MEASURE:
            return
        for primitive in self._decompose(gate):
            matrix = gate_matrix(primitive.kind)
            gate_dd = self._gate_dd(matrix, primitive.targets[0], primitive.controls)
            self._mult_cache.clear()
            self._add_cache.clear()
            self._root = self._multiply(gate_dd, self._root, 0)
        self.gates_applied += 1
        self._check_health()

    def _check_health(self) -> None:
        if self.max_seconds is not None:
            elapsed = time.perf_counter() - self._start_time
            if elapsed > self.max_seconds:
                raise SimulationTimeout(elapsed, self.max_seconds)
        if self.max_nodes is not None and len(self._vec_level) > self.max_nodes:
            raise SimulationMemoryExceeded(len(self._vec_level), self.max_nodes)
        norm = self.norm_squared()
        if abs(norm - 1.0) > self.error_threshold:
            raise NumericalError(
                f"state norm drifted to {norm:.12f} (threshold "
                f"{self.error_threshold}); probabilities no longer sum to 1")

    def run(self, circuit: QuantumCircuit) -> "QmddSimulator":
        """Apply every gate of ``circuit``; returns ``self``."""
        if circuit.num_qubits != self.num_qubits:
            raise ValueError("circuit and simulator qubit counts differ")
        for gate in circuit.gates:
            self.apply_gate(gate)
        return self

    @classmethod
    def simulate(cls, circuit: QuantumCircuit, **kwargs) -> "QmddSimulator":
        """Construct a simulator for ``circuit`` and run it."""
        simulator = cls(circuit.num_qubits, **kwargs)
        return simulator.run(circuit)

    # ------------------------------------------------------------------ #
    # state queries
    # ------------------------------------------------------------------ #
    def amplitude(self, basis_index: int) -> complex:
        """Amplitude of ``|basis_index>``."""
        edge = self._root
        weight = edge.weight
        node = edge.node
        for level in range(self.num_qubits):
            bit = (basis_index >> (self.num_qubits - 1 - level)) & 1
            if node == _TERMINAL or self._vec_level[node] != level:
                continue
            child = self._vec_edges[node][bit]
            weight *= child.weight
            node = child.node
            if weight == 0:
                return 0j
        return weight

    def to_numpy(self):
        """Dense state vector (small qubit counts only)."""
        import numpy as np

        return np.array([self.amplitude(i) for i in range(1 << self.num_qubits)],
                        dtype=complex)

    def _norm_squared_edge(self, edge: Edge, level: int,
                           cache: Dict[Tuple[int, int], float]) -> float:
        if edge.is_zero():
            return 0.0
        if level == self.num_qubits:
            return abs(edge.weight) ** 2
        node = edge.node
        if node == _TERMINAL or self._vec_level[node] != level:
            return 2.0 * self._norm_squared_edge(edge, level + 1, cache)
        key = (node, level)
        if key in cache:
            return abs(edge.weight) ** 2 * cache[key]
        low, high = self._vec_edges[node]
        value = (self._norm_squared_edge(low, level + 1, cache)
                 + self._norm_squared_edge(high, level + 1, cache))
        cache[key] = value
        return abs(edge.weight) ** 2 * value

    def norm_squared(self) -> float:
        """Sum of all outcome probabilities (should be 1)."""
        return self._norm_squared_edge(self._root, 0, {})

    def _restrict(self, edge: Edge, qubit: int, value: int,
                  cache: Optional[Dict[Tuple[int, int], Edge]] = None,
                  level: int = 0) -> Edge:
        """Zero out the branch of ``qubit`` that is not ``value``.

        Restriction is linear, so results are memoised per (node, level) for
        a unit incoming weight and rescaled at each call site.
        """
        if edge.is_zero() or level == self.num_qubits:
            return edge
        if cache is None:
            cache = {}
        key = (edge.node, level)
        cached = cache.get(key)
        if cached is not None:
            return Edge(edge.weight * cached.weight, cached.node)
        unit = Edge(1.0 + 0j, edge.node)
        low, high = self._vec_children(unit, level)
        if level == qubit:
            result = self._vec_node(level, low if value == 0 else _ZERO_EDGE,
                                    high if value == 1 else _ZERO_EDGE)
        elif level > qubit:
            # The measured qubit was skipped by the diagram above this node;
            # nothing below depends on it, so the function is unchanged.
            result = unit
        else:
            result = self._vec_node(level,
                                    self._restrict(low, qubit, value, cache, level + 1),
                                    self._restrict(high, qubit, value, cache, level + 1))
        cache[key] = result
        return Edge(edge.weight * result.weight, result.node)

    def probability_of_qubit(self, qubit: int, value: int = 0) -> float:
        """``Pr[qubit == value]`` without collapsing."""
        restricted = self._restrict(self._root, qubit, value)
        return self._norm_squared_edge(restricted, 0, {})

    def probability_of_outcome(self, qubits: Sequence[int], outcome: Sequence[int]) -> float:
        """Joint probability of ``outcome`` on ``qubits``."""
        edge = self._root
        for qubit, value in zip(qubits, outcome):
            edge = self._restrict(edge, qubit, int(value))
        return self._norm_squared_edge(edge, 0, {})

    def measurement_distribution(self, qubits: Optional[Sequence[int]] = None,
                                 cutoff: float = 1e-15) -> Dict[int, float]:
        """Joint outcome distribution over ``qubits`` (default all)."""
        if qubits is None:
            qubits = list(range(self.num_qubits))
        qubits = list(qubits)
        distribution: Dict[int, float] = {}

        def descend(position: int, edge: Edge, outcome: int) -> None:
            probability = self._norm_squared_edge(edge, 0, {})
            if probability <= cutoff:
                return
            if position == len(qubits):
                distribution[outcome] = probability
                return
            qubit = qubits[position]
            descend(position + 1, self._restrict(edge, qubit, 0), outcome << 1)
            descend(position + 1, self._restrict(edge, qubit, 1), (outcome << 1) | 1)

        descend(0, self._root, 0)
        return distribution

    def measure_qubit(self, qubit: int, rng=None, forced_outcome: Optional[int] = None) -> int:
        """Measure one qubit, collapse and renormalise the diagram."""
        import numpy as np

        probability_zero = self.probability_of_qubit(qubit, 0)
        if forced_outcome is None:
            rng = rng or np.random.default_rng()
            outcome = 0 if rng.random() < probability_zero else 1
        else:
            outcome = int(forced_outcome)
        probability = probability_zero if outcome == 0 else 1.0 - probability_zero
        if probability <= 0.0:
            raise ValueError("attempted to collapse onto a zero-probability outcome")
        restricted = self._restrict(self._root, qubit, outcome)
        self._root = Edge(restricted.weight / math.sqrt(probability), restricted.node)
        return outcome

    # ------------------------------------------------------------------ #
    # statistics
    # ------------------------------------------------------------------ #
    def num_nodes(self) -> int:
        """Number of allocated vector DD nodes (unique-table size; the MO
        metric, which also accounts for intermediate results like DDSIM's
        node pool does)."""
        return len(self._vec_level)

    def num_reachable_nodes(self) -> int:
        """Number of nodes reachable from the current state root (the size of
        the live diagram itself)."""
        seen = set()
        stack = [self._root.node]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            if node != _TERMINAL:
                low, high = self._vec_edges[node]
                stack.append(low.node)
                stack.append(high.node)
        return len(seen)

    def statistics(self) -> Dict[str, float]:
        """Run statistics for the harness."""
        return {
            "num_qubits": self.num_qubits,
            "dd_nodes": self.num_nodes(),
            "peak_dd_nodes": self.peak_nodes,
            "gates_applied": self.gates_applied,
            "norm": self.norm_squared(),
            "elapsed_seconds": time.perf_counter() - self._start_time,
        }

    def __repr__(self) -> str:
        return (f"QmddSimulator(num_qubits={self.num_qubits}, "
                f"nodes={self.num_nodes()}, gates_applied={self.gates_applied})")
