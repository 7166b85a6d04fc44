"""Bit-sliced algebraic state representation (paper Section III-B).

A state vector ``|psi>`` over ``n`` qubits whose amplitudes are written in
the algebraic form ``(a*w^3 + b*w^2 + c*w + d) / sqrt(2)^k`` is stored as

* four lists of ``r`` BDDs over the ``n`` qubit variables — one BDD per bit
  of the two's-complement integers in the vectors ``a``, ``b``, ``c``, ``d``
  (bit 0 is the least-significant bit, bit ``r-1`` the sign bit), and
* one shared integer exponent ``k``, plus
* one floating-point factor ``s`` (the measurement normalisation of Eq. 13;
  it stays exactly 1.0 until a collapse happens).

The truth table of slice ``j`` of vector ``a`` is exactly the ``j``-th bit of
the ``2**n``-entry integer vector ``a`` — Fig. 1 of the paper.

The integer width ``r`` is dynamic: gate application detects two's-complement
overflow symbolically and widens the representation (sign-extension) before
retrying, mirroring the "extra BDDs are allocated on overflow" behaviour of
the original implementation.  :meth:`BitSlicedState.shrink` drops redundant
sign bits again so ``r`` tracks the largest live coefficient.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.algebra import AlgebraicComplex
from repro.bdd import Bdd, BddManager

#: The four vector names of the algebraic representation, in a fixed order.
VECTOR_NAMES = ("a", "b", "c", "d")


class BitSlicedState:
    """The 4r-BDD representation of an ``n``-qubit quantum state.

    Parameters
    ----------
    num_qubits:
        Number of qubits ``n``.  Qubit ``j`` is represented by BDD variable
        ``j`` of the manager (and is the ``j``-th most significant bit of a
        basis index).
    initial_state:
        Basis state ``|i>`` to initialise to (paper Eq. 6).
    initial_bits:
        Initial integer width ``r``.  The original tool starts at 32; the pure
        Python default is 2 because the width grows on demand anyway and
        smaller widths keep the constant factors low.
    manager:
        Optionally share an existing :class:`BddManager`; by default a private
        manager with ``num_qubits`` variables is created.
    """

    def __init__(self, num_qubits: int, initial_state: int = 0,
                 initial_bits: int = 2, manager: Optional[BddManager] = None):
        if num_qubits <= 0:
            raise ValueError("need at least one qubit")
        if initial_bits < 2:
            raise ValueError("need at least two bits for two's complement")
        if not 0 <= initial_state < (1 << num_qubits):
            raise ValueError("initial basis state out of range")
        self.num_qubits = num_qubits
        self.manager = manager or BddManager(num_qubits)
        if self.manager.num_vars < num_qubits:
            raise ValueError("manager does not have enough variables")
        self.r = initial_bits
        self.k = 0
        #: Floating point normalisation factor from measurements (Eq. 13).
        self.s = 1.0
        false = self.manager.false
        self.slices: Dict[str, List[Bdd]] = {
            name: [false for _ in range(initial_bits)] for name in VECTOR_NAMES
        }
        # Paper Eq. 6: the initial basis state sets bit 0 of vector d to the
        # minterm of |initial_state>, everything else stays constant 0.
        self.slices["d"][0] = self._minterm(initial_state)

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    def _minterm(self, basis_index: int) -> Bdd:
        """The BDD that is 1 exactly on ``|basis_index>``."""
        cube = self.manager.true
        for qubit in range(self.num_qubits):
            bit = (basis_index >> (self.num_qubits - 1 - qubit)) & 1
            cube = cube & self.manager.literal(qubit, bool(bit))
        return cube

    def qubit_var(self, qubit: int) -> int:
        """BDD variable index representing ``qubit``."""
        if not 0 <= qubit < self.num_qubits:
            raise ValueError(f"qubit {qubit} out of range")
        return qubit

    # ------------------------------------------------------------------ #
    # width management
    # ------------------------------------------------------------------ #
    def widen(self, extra_bits: int = 1) -> None:
        """Sign-extend every vector by ``extra_bits`` additional slices in
        one pass (the sign slice is shared, so this allocates no nodes)."""
        for name in VECTOR_NAMES:
            bits = self.slices[name]
            sign = bits[-1]
            bits.extend([sign] * extra_bits)
        self.r += extra_bits

    def widen_to(self, width: int) -> None:
        """Sign-extend every vector up to ``width`` slices (no-op when the
        state is already at least that wide).

        Convenience entry point for callers that know a target width up
        front (state preparation, deserialisation, tests).  The gate
        engine's overflow retry deliberately keeps widening by exactly one
        slice per retry instead: a gate's additions can only overflow by one
        bit, and overshooting would change the engine-visible ``bit_width``
        statistic for no saved work.
        """
        if width > self.r:
            self.widen(width - self.r)

    def shrink(self, min_bits: int = 2) -> int:
        """Drop redundant sign slices; returns the number removed.

        A sign slice is redundant when it equals the slice below it in every
        vector.  The removable count is computed in one pass — the length of
        the run of identical top slices, minimised over the four vectors —
        and each vector is truncated once, instead of the old pop-one-slice-
        and-recheck-everything loop.
        """
        removable = self.r - min_bits
        if removable <= 0:
            return 0
        for name in VECTOR_NAMES:
            bits = self.slices[name]
            sign = bits[-1]
            run = 0
            while run < removable and bits[-2 - run] == sign:
                run += 1
            removable = run
            if removable == 0:
                return 0
        for name in VECTOR_NAMES:
            del self.slices[name][self.r - removable:]
        self.r -= removable
        return removable

    def replace_slices(self, new_slices: Dict[str, List[Bdd]], delta_k: int = 0) -> None:
        """Install freshly computed slices (all four vectors, same width)."""
        widths = {len(bits) for bits in new_slices.values()}
        if len(widths) != 1:
            raise ValueError("all four vectors must have the same width")
        self.slices = {name: list(new_slices[name]) for name in VECTOR_NAMES}
        self.r = widths.pop()
        self.k += delta_k

    # ------------------------------------------------------------------ #
    # forking (prefix-resume support)
    # ------------------------------------------------------------------ #
    def fork(self) -> "BitSlicedState":
        """An independent state sharing this state's manager.

        BDD handles are immutable, so copying the 4r handle lists (plus
        ``r`` / ``k`` / ``s``) yields a state whose future gate
        applications never disturb the original — new nodes land in the
        shared manager, the original's slices keep their node ids.  This is
        what lets a retained session (:mod:`repro.cache.sessions`) be
        resumed from without consuming it.  O(4r) handle copies, no node
        allocation.
        """
        forked = BitSlicedState.__new__(BitSlicedState)
        forked.num_qubits = self.num_qubits
        forked.manager = self.manager
        forked.r = self.r
        forked.k = self.k
        forked.s = self.s
        forked.slices = {name: list(bits) for name, bits in self.slices.items()}
        return forked

    # ------------------------------------------------------------------ #
    # dynamic variable reordering
    # ------------------------------------------------------------------ #
    def sift(self, max_vars: int = 0, max_growth: float = 1.2) -> Dict[str, int]:
        """Dynamically reorder the manager's variables to shrink the state.

        Runs the manager's in-place Rudell sifting
        (:meth:`repro.bdd.manager.BddManager.sift`) over everything it
        owns — all 4r slice handles of this state reorder together and stay
        valid in place (node ids keep their functions), as does every other
        handle registered with the shared manager.  Gate application is
        order-independent (the rules address qubits by variable *index*),
        so sifting is safe at any gate boundary.

        Returns the sift's ``{"nodes_before", "nodes_after", "swaps"}``.
        """
        return self.manager.sift(max_vars=max_vars, max_growth=max_growth)

    # ------------------------------------------------------------------ #
    # decoding
    # ------------------------------------------------------------------ #
    def _decode_bits(self, bits: Sequence[Bdd], assignment: Dict[int, bool]) -> int:
        """Decode a two's-complement integer from bit-plane BDDs at a basis
        assignment."""
        value = 0
        for position, bit_bdd in enumerate(bits):
            if self._evaluate(bit_bdd, assignment):
                value |= 1 << position
        sign_weight = 1 << (len(bits) - 1)
        if value & sign_weight:
            value -= sign_weight << 1
        return value

    def _evaluate(self, function: Bdd, assignment: Dict[int, bool]) -> bool:
        manager = self.manager
        node = function.node
        while not manager.is_terminal(node):
            var = manager.node_var(node)
            node = (manager.node_high(node) if assignment.get(var, False)
                    else manager.node_low(node))
        return node == 1

    def _assignment_of(self, basis_index: int) -> Dict[int, bool]:
        return {
            qubit: bool((basis_index >> (self.num_qubits - 1 - qubit)) & 1)
            for qubit in range(self.num_qubits)
        }

    def coefficient_tuple(self, basis_index: int) -> Tuple[int, int, int, int, int]:
        """Raw ``(a, b, c, d, k)`` integers for basis state ``basis_index``
        (not canonicalised, ignoring the measurement factor ``s``)."""
        assignment = self._assignment_of(basis_index)
        return (
            self._decode_bits(self.slices["a"], assignment),
            self._decode_bits(self.slices["b"], assignment),
            self._decode_bits(self.slices["c"], assignment),
            self._decode_bits(self.slices["d"], assignment),
            self.k,
        )

    def amplitude(self, basis_index: int) -> AlgebraicComplex:
        """Exact amplitude of ``|basis_index>`` (ignoring the measurement
        normalisation factor ``s``, which is exposed separately)."""
        if not 0 <= basis_index < (1 << self.num_qubits):
            raise ValueError("basis index out of range")
        a, b, c, d, k = self.coefficient_tuple(basis_index)
        return AlgebraicComplex(a, b, c, d, k)

    def amplitude_complex(self, basis_index: int) -> complex:
        """Floating-point amplitude including the measurement factor ``s``."""
        return self.s * self.amplitude(basis_index).to_complex()

    def to_algebraic_vector(self):
        """The full dense exact state (only sensible for small ``n``)."""
        from repro.algebra import AlgebraicVector

        amplitudes = [self.amplitude(i) for i in range(1 << self.num_qubits)]
        return AlgebraicVector(self.num_qubits, amplitudes)

    def to_numpy(self):
        """The full dense complex state including ``s`` (small ``n`` only)."""
        import numpy as np

        return np.array(
            [self.amplitude_complex(i) for i in range(1 << self.num_qubits)],
            dtype=complex)

    # ------------------------------------------------------------------ #
    # collapse support (used by the measurement engine)
    # ------------------------------------------------------------------ #
    def project_qubit(self, qubit: int, outcome: int, probability: float,
                      exact=None) -> None:
        """Zero out all amplitudes inconsistent with ``qubit == outcome`` and
        renormalise (paper Section III-E, Eq. 13).

        The 4r slice conjunctions against the outcome literal run as one
        batched AND (one computed-table binding for the whole family).

        Renormalisation is *exact in the omega-algebra* whenever possible:
        when ``exact`` (an :class:`~repro.core.measurement.ExactProbability`
        for this outcome, measured in the state's own ``2**k`` scale) shows
        the outcome probability is an exact power of two ``2**(m-k)`` — the
        case for every Clifford-style measurement — the ``1/sqrt(p)`` factor
        is a pure ``sqrt(2)`` power and folds into the global exponent
        (``k`` becomes ``m``), keeping ``s`` at exactly 1.0 and the state
        exact.  Otherwise the floating-point factor ``s`` absorbs
        ``1/sqrt(p)`` as before.
        """
        if probability <= 0.0:
            raise ValueError("cannot project onto a zero-probability outcome")
        keep = self.manager.literal(self.qubit_var(qubit), bool(outcome))
        flat = [bit.node for bit in self.all_slices()]
        conjoined = self.manager.and_many(
            [(node, keep.node) for node in flat])
        for index, name in enumerate(VECTOR_NAMES):
            self.slices[name] = [Bdd(self.manager, node)
                                 for node in conjoined[index * self.r:(index + 1) * self.r]]
        if (exact is not None and self.s == 1.0 and exact.k == self.k
                and exact.y == 0 and exact.x > 0
                and exact.x & (exact.x - 1) == 0):
            # p = 2**m / 2**k  =>  1/sqrt(p) = sqrt(2)**(k-m): the global
            # divisor sqrt(2)**k becomes sqrt(2)**m exactly.
            self.k = exact.x.bit_length() - 1
        else:
            self.s /= probability ** 0.5

    # ------------------------------------------------------------------ #
    # symbolic structure queries
    # ------------------------------------------------------------------ #
    def nonzero_support(self) -> Bdd:
        """The BDD that is 1 exactly on basis states with a non-zero amplitude.

        This is simply the OR of all 4r slice BDDs: an amplitude is zero iff
        every bit of all four integers is zero.  The result is a symbolic
        characterisation of the state's support, independent of its size.
        """
        support = self.manager.false
        for bit in self.all_slices():
            support = support | bit
        return support

    def nonzero_amplitude_count(self) -> int:
        """Number of basis states with a non-zero amplitude.

        Computed symbolically via BDD model counting, so it works for states
        whose support would be far too large to enumerate (e.g. the 2**n
        uniform superposition on hundreds of qubits).
        """
        return self.nonzero_support().satcount(self.num_qubits)

    # ------------------------------------------------------------------ #
    # statistics
    # ------------------------------------------------------------------ #
    def all_slices(self) -> List[Bdd]:
        """The 4r slice BDDs as one flat list (a, b, c, d order)."""
        return [bit for name in VECTOR_NAMES for bit in self.slices[name]]

    def num_nodes(self) -> int:
        """Distinct BDD nodes shared by all slices (the paper's memory
        metric)."""
        return self.manager.count_nodes([bit.node for bit in self.all_slices()])

    def substrate_stats(self) -> Dict[str, float]:
        """The owning manager's raw performance counters (see
        :meth:`repro.bdd.manager.BddManager.perf_stats`)."""
        return self.manager.perf_stats()

    def statistics(self) -> Dict[str, float]:
        """Summary dict used by the harness (width, k, node count, s)."""
        return {
            "num_qubits": self.num_qubits,
            "bit_width": self.r,
            "k": self.k,
            "normalisation": self.s,
            "bdd_nodes": self.num_nodes(),
            "manager_live_nodes": self.manager.num_live_nodes(),
        }

    def __repr__(self) -> str:
        return (f"BitSlicedState(num_qubits={self.num_qubits}, r={self.r}, "
                f"k={self.k}, nodes={self.num_nodes()})")
