"""Pre-characterised Boolean update formulas for every supported gate.

This module is the reproduction of the paper's Table II.  Each gate has a
handler that maps the current slice BDDs ``(Fa_i, Fb_i, Fc_i, Fd_i)`` to the
updated slices, expressed purely through cofactors, Boolean connectives and
symbolic ripple-carry adders — no matrix-vector multiplication ever happens.

Derivation conventions (matching the paper's worked H-gate example):

* Applying a gate to target ``t`` relates, for every setting of the other
  qubits, the new amplitudes at ``q_t = 0 / 1`` to the old amplitudes at
  ``q_t = 0 / 1``.
* Multiplication of an algebraic value by ``i = w**2`` permutes the integer
  coefficients ``(a, b, c, d) -> (c, d, -a, -b)``; by ``w`` (the T gate)
  ``(a, b, c, d) -> (b, c, d, -a)``; negation is two's-complement negation
  (bitwise complement plus an initial carry-in), which is where the
  ``Ca0 = q_t`` style carry seeds of Table II come from.  Adding that seed
  to the complement with a zero addend has a closed form: the carry into
  bit i is ``c and not (F_0 or ... or F_{i-1})``, so bit i of the result is
  ``F_i xor (c and (F_0 or ... or F_{i-1}))``, and the rules compute that
  directly instead of running the adder.
* H, Rx(pi/2) and Ry(pi/2) add amplitudes, so they run a full symbolic adder
  and increment the shared exponent ``k`` by one (their 1/sqrt(2) factor).

Hot-path design (this file issues every substrate operation of a gate):

* Handlers work on **raw node ids** and wrap the final slices in
  :class:`~repro.bdd.expr.Bdd` handles exactly once, so the inner loops
  allocate no handle objects and touch no reference counts.  This is safe
  because the substrate never garbage-collects inside an operation; the old
  slices stay anchored by the state's live handles until
  :meth:`~repro.core.bitslice.BitSlicedState.replace_slices` installs the new
  ones.
* Every per-slice sweep is one batch call on the manager
  (:meth:`~repro.bdd.manager.BddManager.restrict_many`,
  :meth:`~repro.bdd.manager.BddManager.ite_many`, ...): one computed-table
  binding and one interner transaction per 4r-slice batch instead of per
  slice.
* H, Rx(pi/2) and Ry(pi/2) add the target's cofactors with the **butterfly
  adder kernel** :meth:`~repro.bdd.manager.BddManager.butterfly_add_many`:
  per bit position one walk of each slice, its partner slice and the carry
  reads the cofactors on the target inside the kernel and runs Table II's
  fused full adder (sum and carry from one traversal) once per side of it,
  instead of cofactor, XOR, NOT or flip sweeps followed by a full-adder
  sweep.  The four vectors' adders advance through their bit positions in
  lockstep, so each position is a single batch, and overflow is the carry
  out against the carry into the sign bit, compared by node id.
* The permutation gates are one traversal of ``(F, C)`` per slice, with
  ``C`` the control cube (TRUE without controls): X, CX and CCX run
  :meth:`~repro.bdd.manager.BddManager.controlled_flip_many`, Table II's
  ``not C F + C F[q_t := not q_t]``, and SWAP and CSWAP run
  :meth:`~repro.bdd.manager.BddManager.controlled_swap_many`, ``not C F +
  C F[q_a <-> q_b]``, instead of an action sweep over all of ``F`` followed
  by an ITE sweep.  Where ``C`` is TRUE the kernel runs the one-pass flip
  or the cofactor-based swap (no three-cofactor / five-connective formula).
* Y takes the X action alone: one batched
  :meth:`~repro.bdd.manager.BddManager.apply_flip` sweep,
  ``F[q_t := not q_t]``, instead of two cofactor sweeps and an ITE sweep.
* Conditional negation (Z, CZ, Y, S, S†, T and T†) is
  :meth:`GateRuleEngine._negate_where_many`, the closed form of Table II's
  complement-plus-carry: per bit one OR for the prefix ``P_{i+1} = P_i or
  F_i``, one AND ``c and P_i`` and one XOR with ``F_i``, batched across
  vectors, with no complement sweep and no ternary adder kernel.  The
  phase gates' ITE selects the un-negated source first.  Only H, Rx(pi/2)
  and Ry(pi/2) run the adder.
* Multi-control cubes are memoised per sorted controls tuple, so repeated
  Toffoli / Fredkin gates on the same controls stop rebuilding the cube.
* **Reorder tolerance**: handlers address qubits exclusively by variable
  *index* (``state.qubit_var``), never by level, and the substrate's
  operations resolve levels at call time — so the variable order may change
  between gates (an in-place sift at a gate boundary, manual or triggered
  by ``auto_reorder_threshold``) without any handler noticing.  The control
  cube memo below is the one structure that holds node ids across gates;
  it is anchored in handles (reorder-safe) and dropped on every generation
  bump anyway.  Property tests pin this invariant.

The naive 2-operand composition formulas are kept (``_ripple_add``,
``_swap_two_vars``, ``_swap_on``, ``_conditional_negate_add``, ...) as the
*reference path*: property tests assert the fused kernels and the closed-form
negation are node-for-node equivalent to them, and
``benchmarks/bench_gate_kernels.py`` measures the speedup against them.

Every handler returns a :class:`GateUpdate` carrying the new slices, the
``k`` increment and the symbolic overflow predicate of all additions
performed.  :class:`GateRuleEngine.apply` widens the state and retries when
the overflow predicate is satisfiable, reproducing the "allocate extra BDDs
on overflow" behaviour of the original implementation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from types import MethodType
from typing import Callable, Dict, List, Sequence, Tuple

from repro.bdd import Bdd, BddManager
from repro.bdd.manager import (
    BUTTERFLY_CROSS,
    BUTTERFLY_SUB_HIGH,
    BUTTERFLY_SUB_LOW,
    FALSE,
    TRUE,
)
from repro.circuit.gates import Gate, GateKind
from repro.core.bitslice import VECTOR_NAMES, BitSlicedState
from repro.exceptions import UnsupportedGateError
from repro.perf import PerfCounters

#: Node-id lists per vector name — the internal currency of the handlers.
NodeSlices = Dict[str, List[int]]


@dataclass(slots=True)
class GateUpdate:
    """Result of characterising one gate application at the current width."""

    #: New slice BDDs per vector name, least-significant bit first.
    slices: Dict[str, List[Bdd]]
    #: Increment of the shared exponent ``k`` (0 or 1).
    delta_k: int
    #: True when some addition overflowed the current two's-complement width
    #: and the state must be widened before retrying.
    overflowed: bool


class GateRuleEngine:
    """Applies Table II update rules to a :class:`BitSlicedState`."""

    def __init__(self, state: BitSlicedState):
        self.state = state
        self.manager: BddManager = state.manager
        #: Per-gate-kind substrate counters (cache hits / misses, unique-table
        #: traffic, GC activity, elapsed seconds, application count).  Fed by
        #: :meth:`apply` from cheap raw-counter snapshots — two tuple reads
        #: per gate, no keyed-dict construction on the hot path.
        self.perf_by_gate: Dict[str, PerfCounters] = {}
        # Memoised control cubes per sorted controls tuple.  The Bdd handles
        # anchor the cubes across garbage collections; the cache is dropped
        # whenever the manager's generation moves (GC or reorder) because a
        # reorder invalidates the stored node ids.
        self._control_cubes: Dict[Tuple[int, ...], Bdd] = {}
        self._control_cube_generation = self.manager.cache_generation

    # ------------------------------------------------------------------ #
    # public entry point
    # ------------------------------------------------------------------ #
    def apply(self, gate: Gate, max_widen_retries: int = 64) -> None:
        """Apply ``gate`` in place, widening the integer representation as
        needed when two's-complement overflow is detected."""
        handler = self._handler_for(gate.kind)
        before = self.manager.raw_perf_counters()
        started = time.perf_counter()
        for _ in range(max_widen_retries):
            update = handler(gate)
            if not update.overflowed:
                self.state.replace_slices(update.slices, update.delta_k)
                break
            self.state.widen(1)
        else:
            raise RuntimeError(
                f"gate {gate.kind.value} kept overflowing after "
                f"{max_widen_retries} widening attempts")
        elapsed = time.perf_counter() - started
        self._record_raw(gate.kind.value, before,
                         self.manager.raw_perf_counters(), elapsed)

    _RAW_KEYS = ("cache_hits", "cache_misses", "unique_probes",
                 "unique_inserts", "gc_runs", "gc_pause_seconds")

    def _record_raw(self, kind: str, before, after, elapsed: float) -> None:
        bag = self.perf_by_gate.get(kind)
        if bag is None:
            bag = self.perf_by_gate[kind] = PerfCounters()
        bag.add("applications", 1)
        bag.add("elapsed_seconds", elapsed)
        for key, before_value, after_value in zip(self._RAW_KEYS, before, after):
            bag.add(key, after_value - before_value)

    def perf_summary(self) -> Dict[str, Dict[str, float]]:
        """Accumulated substrate counters per gate kind, with cache hit
        rates recomputed over each kind's total hits / misses."""
        summary: Dict[str, Dict[str, float]] = {}
        for kind, bag in self.perf_by_gate.items():
            stats = bag.snapshot()
            lookups = stats.get("cache_hits", 0) + stats.get("cache_misses", 0)
            stats["cache_hit_rate"] = (stats.get("cache_hits", 0) / lookups
                                       if lookups else 0.0)
            summary[kind] = stats
        return summary

    def _handler_for(self, kind: GateKind) -> Callable[[Gate], GateUpdate]:
        handler = self._HANDLERS.get(kind)
        if handler is None:
            raise UnsupportedGateError(f"gate kind {kind.value} is not supported")
        return MethodType(handler, self)

    # ------------------------------------------------------------------ #
    # node-level building blocks (the batched hot path)
    # ------------------------------------------------------------------ #
    def _qvar_node(self, qubit: int) -> int:
        """Raw node id of the qubit's positive literal (no handle churn)."""
        return self.manager.var_node(self.state.qubit_var(qubit))

    def _node_bits(self, name: str) -> List[int]:
        """Node ids of one vector's slices, least-significant bit first."""
        return [bit.node for bit in self.state.slices[name]]

    def _all_node_bits(self) -> List[int]:
        """All 4r slice node ids, flat, in ``VECTOR_NAMES`` order."""
        slices = self.state.slices
        return [bit.node for name in VECTOR_NAMES for bit in slices[name]]

    def _unflatten(self, flat: Sequence[int]) -> NodeSlices:
        """Split a flat 4r node-id list back into the four vectors."""
        r = self.state.r
        return {name: list(flat[index * r:(index + 1) * r])
                for index, name in enumerate(VECTOR_NAMES)}

    def _update(self, nodes: NodeSlices, delta_k: int, overflowed: bool) -> GateUpdate:
        """Wrap the handler's raw node ids into handles exactly once."""
        manager = self.manager
        slices = {name: [Bdd(manager, node) for node in nodes[name]]
                  for name in VECTOR_NAMES}
        return GateUpdate(slices, delta_k, overflowed)

    def _swap_on_many(self, nodes: Sequence[int], qubit: int) -> List[int]:
        """X-gate action on every node: the value at ``q = b`` becomes the
        old value at ``q = not b`` (one batched variable-flip sweep)."""
        return self.manager.flip_many(nodes, self.state.qubit_var(qubit))

    def _control_conjunction(self, controls: Sequence[int]) -> Bdd:
        """Conjunction of the positive control literals, memoised per sorted
        controls tuple so repeated multi-controlled gates reuse the cube."""
        key = tuple(sorted(controls))
        manager = self.manager
        if manager.cache_generation != self._control_cube_generation:
            self._control_cubes.clear()
            self._control_cube_generation = manager.cache_generation
        cube = self._control_cubes.get(key)
        if cube is None:
            node = TRUE
            for control in key:
                node = manager.apply_and(node, self._qvar_node(control))
            cube = Bdd(manager, node)
            self._control_cubes[key] = cube
        return cube

    def _negate_where_many(self, vectors: Sequence[Sequence[int]],
                           conditions: Sequence[int],
                           ) -> Tuple[List[List[int]], bool]:
        """Two's-complement negate each equal-width vector wherever its
        condition holds, in closed form (no carry chain).

        Bit i of -x is x_i xor (x_0 or ... or x_{i-1}), so with the prefix
        disjunctions P_1 = F_0, P_{i+1} = P_i or F_i, the result is
        G_0 = F_0 and G_i = F_i xor (c and P_i).  The P chain is one OR
        batch per bit position across all vectors; the ``c and P_i`` terms
        and the XORs are then one batch each over every position.

        Returns ``(negated_bit_lists, overflowed)``.  The negation overflows
        only on the minimum value -2^(r-1), i.e. where
        ``c and F_{r-1} and not P_{r-1}`` holds: the same predicate as the
        carry-out xor carry-into-sign of Table II's complement-plus-carry
        adder (:meth:`_conditional_negate_add`).
        """
        width = len(vectors[0])
        if any(len(bits) != width for bits in vectors):
            raise ValueError("negated vectors must have the same width")
        manager = self.manager
        span = width - 1
        # prefixes[v][i] is P_i = F_0 or ... or F_{i-1} of vector v, i < r.
        prefixes = [[FALSE, bits[0]] if span else [FALSE] for bits in vectors]
        for position in range(1, span):
            extended = manager.or_many([(prefix[-1], bits[position])
                                        for prefix, bits in zip(prefixes, vectors)])
            for prefix, node in zip(prefixes, extended):
                prefix.append(node)
        terms = manager.and_many(
            [(condition, node) for condition, prefix in zip(conditions, prefixes)
             for node in prefix[1:]]
            + [(condition, bits[-1]) for condition, bits in zip(conditions, vectors)])
        split = len(vectors) * span
        negated = manager.xor_many(list(zip(
            (bit for bits in vectors for bit in bits[1:]), terms[:split])))
        overflow = manager.ite_many([(prefix[-1], FALSE, sign_term) for prefix, sign_term
                                     in zip(prefixes, terms[split:])])
        results = [[bits[0]] + negated[index * span:(index + 1) * span]
                   for index, bits in enumerate(vectors)]
        return results, any(node != FALSE for node in overflow)

    # ------------------------------------------------------------------ #
    # reference composition path (kept for equivalence tests / benchmarks)
    # ------------------------------------------------------------------ #
    def _qvar(self, qubit: int) -> Bdd:
        return self.manager.var(self.state.qubit_var(qubit))

    def _bits(self, name: str) -> List[Bdd]:
        return list(self.state.slices[name])

    def _zeros(self) -> List[Bdd]:
        false = self.manager.false
        return [false for _ in range(self.state.r)]

    def _swap_on(self, function: Bdd, qubit: int) -> Bdd:
        """Reference form of :meth:`_swap_on_many` for a single function."""
        var = self.state.qubit_var(qubit)
        q = self._qvar(qubit)
        return q.ite(function.cofactor(var, False), function.cofactor(var, True))

    def _swap_two_vars(self, function: Bdd, qubit_a: int, qubit_b: int) -> Bdd:
        """Reference (pre-fusion) SWAP action: three full-function cofactor
        traversals recombined through five Boolean connectives.  The hot
        path uses :meth:`~repro.bdd.manager.BddManager.apply_swap_vars`."""
        var_a = self.state.qubit_var(qubit_a)
        var_b = self.state.qubit_var(qubit_b)
        qa, qb = self._qvar(qubit_a), self._qvar(qubit_b)
        f_01 = function.cofactor(var_a, False).cofactor(var_b, True)
        f_10 = function.cofactor(var_a, True).cofactor(var_b, False)
        same = qa.equiv(qb)
        return (same & function) | (qa & ~qb & f_01) | (~qa & qb & f_10)

    @staticmethod
    def _carry(a: Bdd, b: Bdd, c: Bdd) -> Bdd:
        """Car(A, B, C) = AB + (A + B)C  (paper's carry formula)."""
        return (a & b) | ((a | b) & c)

    @staticmethod
    def _sum(a: Bdd, b: Bdd, c: Bdd) -> Bdd:
        """Sum(A, B, C) = A xor B xor C  (paper's sum formula)."""
        return a ^ b ^ c

    def _ripple_add(self, addend_a: Sequence[Bdd], addend_b: Sequence[Bdd],
                    carry_in: Bdd) -> Tuple[List[Bdd], bool]:
        """Reference (pre-fusion) symbolic adder: one sum and one carry per
        position via chained 2-operand applies.  The hot path is
        :meth:`_butterfly_ripple`; property tests assert that it agrees
        node-for-node with this adder on the cofactor / flip operands."""
        if len(addend_a) != len(addend_b):
            raise ValueError("adder operands must have the same width")
        carry = carry_in
        sums: List[Bdd] = []
        carry_into_sign = carry_in
        for position, (bit_a, bit_b) in enumerate(zip(addend_a, addend_b)):
            if position == len(addend_a) - 1:
                carry_into_sign = carry
            sums.append(self._sum(bit_a, bit_b, carry))
            carry = self._carry(bit_a, bit_b, carry)
        overflow = carry ^ carry_into_sign
        return sums, not overflow.is_false()

    def _conditional_negate_add(self, bits: Sequence[Bdd], condition: Bdd) -> Tuple[List[Bdd], bool]:
        """Reference form: two's-complement negate the integer wherever
        ``condition`` holds (``G_i = cond' F_i + cond (not F_i)`` with carry
        seed ``Ca0 = cond``: the bitwise complement plus one)."""
        complemented = [condition.ite(~bit, bit) for bit in bits]
        return self._ripple_add(complemented, self._zeros(), condition)

    # ------------------------------------------------------------------ #
    # permutation-only gates (no adder, no overflow)
    # ------------------------------------------------------------------ #
    def _control_node(self, gate: Gate) -> int:
        """Node id of a permutation gate's condition: TRUE for X and SWAP,
        CX's control literal, and the memoised cube for CCX and CSWAP.  The
        memo anchors its cube in a handle, which a sift counts as a root, so
        CX keeps reading its literal directly, as it always has, and a
        reorder sees the same roots."""
        if not gate.controls:
            return TRUE
        if gate.kind is GateKind.CX:
            return self._qvar_node(gate.controls[0])
        return self._control_conjunction(gate.controls).node

    def _apply_controlled_flip(self, gate: Gate) -> GateUpdate:
        # X, CX, CCX: F' = ite(C, F[q_t := not q_t], F) in one traversal of
        # (F, C).
        new_flat = self.manager.controlled_flip_many(
            self._all_node_bits(), self._control_node(gate),
            self.state.qubit_var(gate.targets[0]))
        return self._update(self._unflatten(new_flat), 0, False)

    def _apply_controlled_swap(self, gate: Gate) -> GateUpdate:
        # SWAP, CSWAP: F' = ite(C, F[q_a <-> q_b], F), likewise.
        qubit_a, qubit_b = gate.targets
        new_flat = self.manager.controlled_swap_many(
            self._all_node_bits(), self._control_node(gate),
            self.state.qubit_var(qubit_a), self.state.qubit_var(qubit_b))
        return self._update(self._unflatten(new_flat), 0, False)

    # ------------------------------------------------------------------ #
    # phase gates (conditional coefficient permutation / negation)
    # ------------------------------------------------------------------ #
    def _apply_z(self, gate: Gate) -> GateUpdate:
        condition = self._qvar_node(gate.targets[0])
        return self._conditional_negate_all(condition)

    def _apply_cz(self, gate: Gate) -> GateUpdate:
        condition = self.manager.apply_and(self._qvar_node(gate.controls[0]),
                                           self._qvar_node(gate.targets[0]))
        return self._conditional_negate_all(condition)

    def _conditional_negate_all(self, condition: int) -> GateUpdate:
        vectors = [self._node_bits(name) for name in VECTOR_NAMES]
        negated, overflowed = self._negate_where_many(
            vectors, [condition] * len(vectors))
        return self._update(dict(zip(VECTOR_NAMES, negated)), 0, overflowed)

    def _apply_s(self, gate: Gate) -> GateUpdate:
        # On q_t = 1 multiply by i: (a, b, c, d) -> (c, d, -a, -b).
        return self._permute_negate(gate, "cdab", "cd")

    def _apply_sdg(self, gate: Gate) -> GateUpdate:
        # On q_t = 1 multiply by -i: (a, b, c, d) -> (-c, -d, a, b).
        return self._permute_negate(gate, "cdab", "ab")

    def _apply_t(self, gate: Gate) -> GateUpdate:
        # On q_t = 1 multiply by w: (a, b, c, d) -> (b, c, d, -a).
        return self._permute_negate(gate, "bcda", "d")

    def _apply_tdg(self, gate: Gate) -> GateUpdate:
        # On q_t = 1 multiply by w**-1: (a, b, c, d) -> (-d, a, b, c).
        return self._permute_negate(gate, "dabc", "a")

    def _permute_negate(self, gate: Gate, sources: str,
                        negated: str) -> GateUpdate:
        """Where ``q_t = 1``, vector ``VECTOR_NAMES[i]`` takes the old
        vector ``sources[i]``, and the vectors named in ``negated`` are then
        two's-complement negated there.  One ITE batch selects the
        un-negated sources; :meth:`_negate_where_many` negates under q_t."""
        qt = self._qvar_node(gate.targets[0])
        old = {name: self._node_bits(name) for name in VECTOR_NAMES}
        mixed = self._unflatten(self.manager.ite_many(
            [(qt, src, own)
             for name, source in zip(VECTOR_NAMES, sources)
             for src, own in zip(old[source], old[name])]))
        negated_bits, overflowed = self._negate_where_many(
            [mixed[name] for name in negated], [qt] * len(negated))
        mixed.update(zip(negated, negated_bits))
        return self._update(mixed, 0, overflowed)

    def _apply_y(self, gate: Gate) -> GateUpdate:
        # new(q_t=0) = -i * old(q_t=1), new(q_t=1) = +i * old(q_t=0);
        # i * (a,b,c,d) = (c, d, -a, -b).  So a' <- c and b' <- d swapped,
        # negated on q_t = 0; c' <- a and d' <- b swapped, negated on q_t = 1.
        target = gate.targets[0]
        qt = self._qvar_node(target)
        not_qt = self.manager.apply_not(qt)
        fa, fb, fc, fd = (self._node_bits(name) for name in VECTOR_NAMES)
        swapped = self._unflatten(self._swap_on_many(fc + fd + fa + fb, target))
        negated, overflowed = self._negate_where_many(
            [swapped[name] for name in VECTOR_NAMES],
            [not_qt, not_qt, qt, qt])
        return self._update(dict(zip(VECTOR_NAMES, negated)), 0, overflowed)

    # ------------------------------------------------------------------ #
    # superposing gates (symbolic adders, k increments)
    # ------------------------------------------------------------------ #
    def _apply_h(self, gate: Gate) -> GateUpdate:
        # new(q_t=0) = old(0) + old(1); new(q_t=1) = old(0) - old(1); k += 1.
        qt = self._qvar_node(gate.targets[0])
        return self._butterfly_ripple(gate, "abcd", (BUTTERFLY_SUB_HIGH,) * 4, (qt,) * 4)

    def _apply_ry(self, gate: Gate) -> GateUpdate:
        # new(q_t=0) = old(0) - old(1); new(q_t=1) = old(0) + old(1); k += 1.
        not_qt = self.manager.apply_not(self._qvar_node(gate.targets[0]))
        return self._butterfly_ripple(gate, "abcd", (BUTTERFLY_SUB_LOW,) * 4, (not_qt,) * 4)

    def _apply_rx(self, gate: Gate) -> GateUpdate:
        # new = old - i * old_swapped (per branch); k += 1.
        # Contributions: a' = a - c_swapped, b' = b - d_swapped,
        #                c' = c + a_swapped, d' = d + b_swapped.
        subtract = BUTTERFLY_CROSS | BUTTERFLY_SUB_LOW | BUTTERFLY_SUB_HIGH
        return self._butterfly_ripple(gate, "cdab", (subtract, subtract) + (BUTTERFLY_CROSS,) * 2,
                                      (TRUE, TRUE, FALSE, FALSE))

    def _butterfly_ripple(self, gate: Gate, others: str, modes: Sequence[int],
                          carries: Sequence[int]) -> GateUpdate:
        """The four symbolic two's-complement adders of a superposing gate,
        in lockstep: vector ``VECTOR_NAMES[i]`` adds the vector named
        ``others[i]`` with butterfly mode ``modes[i]`` and carry seed
        ``carries[i]``.  Each bit position is one
        :meth:`~repro.bdd.manager.BddManager.butterfly_add_many` batch
        across the four vectors, which takes the target's cofactors inside
        the kernel.  An adder overflowed where its carry out differs from
        its carry into the sign bit; reduced ordered BDDs are canonical, so
        that is a node-id comparison."""
        var = self.state.qubit_var(gate.targets[0])
        own = [self._node_bits(name) for name in VECTOR_NAMES]
        other = [self._node_bits(name) for name in others]
        butterfly_add_many = self.manager.butterfly_add_many
        carries = list(carries)
        sums: List[List[int]] = [[] for _ in own]
        for position in range(self.state.r):
            carry_into_sign = carries
            steps = butterfly_add_many(
                [(bits[position], other_bits[position], carry, mode)
                 for bits, other_bits, carry, mode in zip(own, other, carries, modes)], var)
            carries = [carry for _, carry in steps]
            for bits, (sum_bit, _) in zip(sums, steps):
                bits.append(sum_bit)
        return self._update(dict(zip(VECTOR_NAMES, sums)), 1, carries != carry_into_sign)

    # Plain functions, bound per call: a dict of bound methods on the
    # instance would make every engine (and its state and manager) a
    # reference cycle left for the cyclic collector.
    _HANDLERS: Dict[GateKind, Callable[["GateRuleEngine", Gate], GateUpdate]] = {
        GateKind.X: _apply_controlled_flip,
        GateKind.Y: _apply_y,
        GateKind.Z: _apply_z,
        GateKind.H: _apply_h,
        GateKind.S: _apply_s,
        GateKind.SDG: _apply_sdg,
        GateKind.T: _apply_t,
        GateKind.TDG: _apply_tdg,
        GateKind.RX_PI_2: _apply_rx,
        GateKind.RY_PI_2: _apply_ry,
        GateKind.CX: _apply_controlled_flip,
        GateKind.CZ: _apply_cz,
        GateKind.CCX: _apply_controlled_flip,
        GateKind.CSWAP: _apply_controlled_swap,
        GateKind.SWAP: _apply_controlled_swap,
    }
