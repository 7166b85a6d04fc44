"""Measurement and probability calculation (paper Section III-E).

The bit-sliced representation spreads one state over ``4*r`` BDDs, so unlike
the QMDD approach there is no single diagram to traverse.  Following the
paper, the 4r slice BDDs are first combined into one *monolithic
hyper-function BDD* (Eq. 12) using fresh encoding variables placed **below**
all qubit variables:

* two selector variables ``x0 x1`` choose among the four vectors
  ``a, b, c, d``;
* ``ceil(log2 r)`` selector variables choose the bit index inside a vector.

For a fixed assignment of the qubit variables the residual function over the
encoding variables is exactly the bit pattern of the four integers of that
basis state, so the amplitude can be decoded by evaluating the residual on
the ``r`` encodings of each vector.

Probability accumulation walks the top ``n`` (qubit) levels of the monolithic
BDD once, memoising per node, and decodes amplitudes only at the boundary
nodes — the direct analogue of the QMDD traversal the paper compares against.
:meth:`MeasurementEngine.build_hyperfunction` and
:meth:`MeasurementEngine._accumulate` keep that construction as the
reference the exactness tests compare against.

Every query skips the hyper-function.  It cofactors the slices by the
outcome cube (for the usual all-qubit cube a plain path walk that ends on
terminals) and hands the tuple of ``4r`` cofactor node ids to
:class:`SliceMass`, which sums the squared amplitudes in one memoised walk
over the tuple itself; no encoding variable is added to the manager.
All accumulation is exact: a probability is kept as an integer pair
``(x, y)`` meaning ``(x + y*sqrt(2)) / 2**k`` until the final conversion to
float (this substitutes for the MPFR high-precision floats of the original
implementation and is at least as accurate).

Collapse follows Eq. 13: amplitudes inconsistent with the observed outcome
are zeroed in every slice BDD and the floating-point factor ``s`` of the
state absorbs the ``1/sqrt(p)`` renormalisation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.algebra.omega import sqrt2_ratio_to_float
from repro.bdd import Bdd
from repro.core.bitslice import VECTOR_NAMES, BitSlicedState


class ExactProbability:
    """An exact non-negative number of the form ``(x + y*sqrt(2)) / 2**k``.

    Instances are produced by summing squared amplitude magnitudes; the
    integer pair is exact, only :meth:`to_float` rounds.
    """

    __slots__ = ("x", "y", "k")

    def __init__(self, x: int = 0, y: int = 0, k: int = 0):
        self.x = x
        self.y = y
        self.k = k

    def add_numerator(self, x: int, y: int) -> None:
        """Add ``x + y*sqrt(2)`` to the numerator (same ``2**k`` scale)."""
        self.x += x
        self.y += y

    def scaled(self, factor: int) -> "ExactProbability":
        """A copy with the numerator multiplied by an integer factor."""
        return ExactProbability(self.x * factor, self.y * factor, self.k)

    def to_float(self, extra_scale: float = 1.0) -> float:
        """Convert to float, optionally multiplying by ``extra_scale``
        (used for the measurement normalisation ``s**2``)."""
        return sqrt2_ratio_to_float(self.x, self.y, self.k) * extra_scale

    def is_zero(self) -> bool:
        """True when the exact value is zero."""
        return self.x == 0 and self.y == 0

    def __repr__(self) -> str:
        return f"ExactProbability(({self.x} + {self.y}*sqrt2)/2^{self.k})"


class SliceMass:
    """Exact summed ``|amplitude|**2`` of a tuple of ``4r`` slice nodes.

    :meth:`mass` takes node ids laid out like
    :meth:`~repro.core.bitslice.BitSlicedState.all_slices` (vectors ``a..d``,
    each in bit order) and returns the integer pair ``(x, y)`` of
    ``sum (a*a + b*b + c*c + d*d, a*b + b*c + c*d - a*d)`` over every
    assignment of the state's qubit variables, where ``a..d`` are the
    two's-complement integers the slices spell (bit ``j`` weighs ``2**j``,
    the sign bit ``-2**(r-1)``).  That is the state's mass
    ``(x + y*sqrt(2)) / 2**k`` before the measurement factor ``s**2``.

    The walk splits a tuple on its topmost level, evaluates all-terminal
    tuples from their bits, and sums the two halves with ``2**skip`` shifts
    for the levels a half does not depend on.  It runs on an explicit stack
    (a basis-state cube puts every level on some path, so wide registers are
    deep) and memoises per tuple, so a sampler's prefixes — cofactors met on
    the way down — share one walk.  The memo follows
    :attr:`~repro.bdd.manager.BddManager.cache_generation`: garbage
    collection and reordering drop it.
    """

    def __init__(self, state: BitSlicedState):
        self.manager = state.manager
        self.num_qubits = state.num_qubits
        self.r = state.r
        self._weights = [1 << j for j in range(self.r - 1)] + [-(1 << (self.r - 1))]
        # tuple -> (x, y, level, low, high): (x, y) summed over the levels
        # at and below ``level``, the tuple's topmost level, and the
        # tuple's cofactors there (an all-terminal tuple is its own).
        self._memo: Dict[Tuple[int, ...], tuple] = {}
        self._valid_for = (self.manager.cache_generation, self.manager.num_vars)

    def _leaf(self, bits: Tuple[int, ...]) -> Tuple[int, int]:
        r, weights = self.r, self._weights
        a, b, c, d = (sum(weight for weight, bit in zip(weights, bits[start:start + r])
                          if bit)
                      for start in range(0, 4 * r, r))
        return a * a + b * b + c * c + d * d, a * b + b * c + c * d - a * d

    def _current_memo(self) -> Dict[Tuple[int, ...], tuple]:
        """The memo, emptied first if a garbage collection or a reorder (a
        new cache generation) or a new variable outdated it."""
        manager = self.manager
        valid_for = (manager.cache_generation, manager.num_vars)
        if self._valid_for != valid_for:
            self._memo = {}
            self._valid_for = valid_for
        return self._memo

    def split(self, nodes: Tuple[int, ...]
              ) -> Optional[Tuple[int, Tuple[int, ...], Tuple[int, ...]]]:
        """``(level, low, high)`` of a tuple that :meth:`mass` has walked
        in the current generation: its topmost level and its cofactors
        there (an all-terminal tuple lies below every level and is its own
        cofactor), or ``None`` for a tuple not walked."""
        entry = self._current_memo().get(nodes)
        return None if entry is None else entry[2:]

    def mass(self, nodes: Tuple[int, ...]) -> Tuple[int, int]:
        """Exact ``(x, y)`` of ``nodes`` summed over all qubit assignments."""
        manager = self.manager
        bottom = manager.num_vars
        memo = self._current_memo()
        if nodes not in memo:
            # The manager's node columns, read directly as satcount does.
            var_of, low_of, high_of = manager._var, manager._low, manager._high
            level_of, var_at = manager._var_to_level, manager._level_to_var
            stack: list = [nodes]
            while stack:
                item = stack.pop()
                if item.__class__ is list:  # both halves are done: combine
                    item, top, low, high = item
                    low_x, low_y, low_level = memo[low][:3]
                    high_x, high_y, high_level = memo[high][:3]
                    low_skip, high_skip = low_level - top - 1, high_level - top - 1
                    memo[item] = ((low_x << low_skip) + (high_x << high_skip),
                                  (low_y << low_skip) + (high_y << high_skip),
                                  top, low, high)
                    continue
                if item in memo:
                    continue
                top = min([level_of[var_of[node]] for node in item if node > 1],
                          default=bottom)
                if top == bottom:
                    memo[item] = self._leaf(item) + (bottom, item, item)
                    continue
                var = var_at[top]
                low = tuple([low_of[node] if var_of[node] == var else node
                             for node in item])
                high = tuple([high_of[node] if var_of[node] == var else node
                              for node in item])
                stack += ([item, top, low, high], high, low)
        x, y, level = memo[nodes][:3]
        # Variables other than the qubits' (Eq. 12's encoding variables)
        # never occur in slices; every one of them doubled the sum.
        extra = bottom - self.num_qubits
        return (x << level) >> extra, (y << level) >> extra


class MeasurementEngine:
    """Measurement and probability queries for one state.

    The engine snapshots nothing: every public query reads the state's
    current slices, so it can be used before and after gate applications
    and collapses alike.  Every query (the total, outcome and qubit
    probabilities, the distribution and the collapse path) cofactors the
    slices by an outcome cube and sums the cofactors with
    :class:`SliceMass`, then shifts the exact ``(x, y)`` pair right by the
    number of fixed variables (see :meth:`_restricted_probability`).  The
    Eq. 12 hyper-function (:meth:`build_hyperfunction`) is kept as the
    reference construction.
    """

    def __init__(self, state: BitSlicedState):
        self.state = state
        self.manager = state.manager

    # ------------------------------------------------------------------ #
    # hyper-function construction (paper Eq. 12)
    # ------------------------------------------------------------------ #
    def _encoding_vars(self, num_bit_selectors: int) -> Tuple[List[int], List[int]]:
        """Return (vector-selector vars, bit-selector vars), creating fresh
        manager variables below the qubit variables when necessary."""
        needed = 2 + num_bit_selectors
        existing = self.manager.num_vars - self.state.num_qubits
        for _ in range(max(0, needed - existing)):
            self.manager.new_var()
        base = self.state.num_qubits
        vector_vars = [base, base + 1]
        bit_vars = [base + 2 + i for i in range(num_bit_selectors)]
        return vector_vars, bit_vars

    def _bit_selector_count(self) -> int:
        r = self.state.r
        return max(1, (r - 1).bit_length())

    def build_hyperfunction(self) -> Bdd:
        """Combine the 4r slice BDDs into the monolithic BDD ``F`` of Eq. 12."""
        num_bit_selectors = self._bit_selector_count()
        vector_vars, bit_vars = self._encoding_vars(num_bit_selectors)
        manager = self.manager

        def bit_minterm(index: int) -> Bdd:
            cube = manager.true
            for position, var in enumerate(bit_vars):
                bit = (index >> (len(bit_vars) - 1 - position)) & 1
                cube = cube & manager.literal(var, bool(bit))
            return cube

        def vector_minterm(selector: int) -> Bdd:
            high = manager.literal(vector_vars[0], bool(selector >> 1))
            low = manager.literal(vector_vars[1], bool(selector & 1))
            return high & low

        combined = manager.false
        for selector, name in enumerate(VECTOR_NAMES):
            per_vector = manager.false
            for index, slice_bdd in enumerate(self.state.slices[name]):
                if slice_bdd.is_false():
                    continue
                per_vector = per_vector | (bit_minterm(index) & slice_bdd)
            combined = combined | (vector_minterm(selector) & per_vector)
        return combined

    # ------------------------------------------------------------------ #
    # amplitude decoding at boundary nodes
    # ------------------------------------------------------------------ #
    def _decode_boundary(self, node: int) -> Tuple[int, int, int, int]:
        """Decode the four two's-complement integers encoded by the residual
        function rooted at ``node`` (a node at or below the encoding levels)."""
        manager = self.manager
        num_bit_selectors = self._bit_selector_count()
        vector_vars, bit_vars = self._encoding_vars(num_bit_selectors)
        r = self.state.r
        values = []
        for selector in range(4):
            assignment = {
                vector_vars[0]: bool(selector >> 1),
                vector_vars[1]: bool(selector & 1),
            }
            value = 0
            for index in range(r):
                for position, var in enumerate(bit_vars):
                    assignment[var] = bool((index >> (len(bit_vars) - 1 - position)) & 1)
                current = node
                while not manager.is_terminal(current):
                    var = manager.node_var(current)
                    current = (manager.node_high(current)
                               if assignment.get(var, False)
                               else manager.node_low(current))
                if current == 1:
                    value |= 1 << index
            sign_weight = 1 << (r - 1)
            if value & sign_weight:
                value -= sign_weight << 1
            values.append(value)
        return tuple(values)  # type: ignore[return-value]

    def _boundary_numerator(self, node: int) -> Tuple[int, int]:
        """Exact ``|alpha|**2`` numerator ``(x, y)`` (over ``2**k``) of the
        amplitude encoded at a boundary node."""
        a, b, c, d = self._decode_boundary(node)
        x = a * a + b * b + c * c + d * d
        y = a * b + b * c + c * d - a * d
        return x, y

    # ------------------------------------------------------------------ #
    # probability recursion over the qubit levels
    # ------------------------------------------------------------------ #
    def _accumulate(self, root: Bdd) -> ExactProbability:
        """Total ``sum |alpha_i|**2`` (exact, before the ``s**2`` factor) of
        the sub-state encoded by ``root``."""
        manager = self.manager
        num_qubits = self.state.num_qubits
        boundary_cache: Dict[int, Tuple[int, int]] = {}
        level_cache: Dict[Tuple[int, int], Tuple[int, int]] = {}

        def node_level(node: int) -> int:
            if manager.is_terminal(node):
                return num_qubits
            level = manager.level_of(manager.node_var(node))
            return min(level, num_qubits)

        def boundary(node: int) -> Tuple[int, int]:
            if node == 0:  # constant false: all bits zero, amplitude zero
                return (0, 0)
            cached = boundary_cache.get(node)
            if cached is None:
                cached = self._boundary_numerator(node)
                boundary_cache[node] = cached
            return cached

        def recurse(node: int, level: int) -> Tuple[int, int]:
            if level >= num_qubits:
                return boundary(node)
            key = (node, level)
            cached = level_cache.get(key)
            if cached is not None:
                return cached
            own_level = node_level(node)
            if own_level > level:
                # The qubit at this level does not constrain the node: both
                # branches contribute identically.
                x, y = recurse(node, own_level if own_level < num_qubits else num_qubits)
                shift = min(own_level, num_qubits) - level
                result = (x << shift, y << shift)
            else:
                low_x, low_y = recurse(manager.node_low(node), level + 1)
                high_x, high_y = recurse(manager.node_high(node), level + 1)
                result = (low_x + high_x, low_y + high_y)
            level_cache[key] = result
            return result

        x, y = recurse(root.node, 0)
        return ExactProbability(x, y, self.state.k)

    # ------------------------------------------------------------------ #
    # cofactor-then-sum queries
    # ------------------------------------------------------------------ #
    def _restricted_probability(self, qubits: Sequence[int],
                                outcome: Sequence[int]) -> ExactProbability:
        """Exact ``sum |alpha|**2`` over the basis states with ``qubits ==
        outcome`` (before the measurement factor ``s**2``).

        The outcome is one prefix of a :class:`~repro.core.sampling.SliceSampler`
        over ``qubits``: the slices are cofactored by the outcome cube and
        summed by :class:`SliceMass`, and no hyper-function is built (see
        :meth:`~repro.core.sampling.SliceSampler.prefix_exact`).  Repeated
        qubits with equal values count once; conflicting values give
        probability zero.
        """
        from repro.core.sampling import SliceSampler

        if len(qubits) != len(outcome):
            raise ValueError("qubits and outcome must have the same length")
        prefix = tuple(int(bool(value)) for value in outcome)
        return SliceSampler(self.state, qubits).prefix_exact(prefix)

    # ------------------------------------------------------------------ #
    # public probability queries
    # ------------------------------------------------------------------ #
    def total_probability(self) -> float:
        """Sum of all outcome probabilities (1.0 for a healthy state)."""
        return self._restricted_probability([], []).to_float(self.state.s ** 2)

    def probability_of_qubit_exact(self, qubit: int, value: int = 0) -> ExactProbability:
        """``Pr[qubit == value]`` as an exact :class:`ExactProbability`
        ``(x + y*sqrt(2)) / 2**k`` (before the measurement factor ``s**2``),
        without collapsing.  Feeding this into
        :meth:`~repro.core.bitslice.BitSlicedState.project_qubit` enables the
        exact omega-algebra renormalisation on power-of-two outcomes."""
        return self._restricted_probability([qubit], [value])

    def probability_of_qubit(self, qubit: int, value: int = 0) -> float:
        """``Pr[qubit == value]`` without collapsing."""
        exact = self.probability_of_qubit_exact(qubit, value)
        return exact.to_float(self.state.s ** 2)

    def probability_of_outcome(self, qubits: Sequence[int], outcome: Sequence[int]) -> float:
        """Probability of jointly observing ``outcome`` on ``qubits``.

        This is the paper's preferred "measure all interesting qubits at
        once" query, which avoids intermediate renormalisation entirely.
        """
        exact = self._restricted_probability(qubits, outcome)
        return exact.to_float(self.state.s ** 2)

    def measurement_distribution(self, qubits: Optional[Sequence[int]] = None,
                                 cutoff: float = 1e-15) -> Dict[int, float]:
        """Joint distribution over ``qubits`` (default all), as a dict mapping
        outcome integers (first listed qubit = most significant bit) to
        probabilities above ``cutoff``.

        One :class:`~repro.core.sampling.SliceSampler` descent: every
        prefix's mass comes from the shared memoised cofactor walk, and a
        prefix at or below ``cutoff`` is not extended."""
        from repro.core.sampling import SliceSampler

        if qubits is None:
            qubits = range(self.state.num_qubits)
        sampler = SliceSampler(self.state, qubits)
        width = len(sampler.qubits)
        distribution: Dict[int, float] = {}
        pending = [((), 0)]
        while pending:
            prefix, outcome = pending.pop()
            probability = sampler.prefix_probability(prefix)
            if probability <= cutoff:
                continue
            if len(prefix) == width:
                distribution[outcome] = probability
                continue
            # Pushed 1 first, so the 0 branch (smaller outcomes) comes first.
            pending.append((prefix + (1,), (outcome << 1) | 1))
            pending.append((prefix + (0,), outcome << 1))
        return distribution

    # ------------------------------------------------------------------ #
    # measurement with collapse, and sampling
    # ------------------------------------------------------------------ #
    def measure_qubit(self, qubit: int, rng=None,
                      forced_outcome: Optional[int] = None) -> int:
        """Measure one qubit, collapse the state, and return the outcome.

        The collapse renormalises exactly in the omega-algebra whenever the
        outcome probability is an exact power of two (see
        :meth:`~repro.core.bitslice.BitSlicedState.project_qubit`); only
        irrational probabilities fall back to the floating-point factor
        ``s``.
        """
        exact_zero = self.probability_of_qubit_exact(qubit, 0)
        probability_zero = exact_zero.to_float(self.state.s ** 2)
        if forced_outcome is None:
            if rng is None:
                import numpy as np

                rng = np.random.default_rng()
            draw = rng.random()
            outcome = 0 if draw < probability_zero else 1
        else:
            outcome = int(forced_outcome)
        if outcome == 0:
            exact = exact_zero
            probability = probability_zero
        else:
            # With s == 1 the state is exactly normalised (only collapses
            # perturb the norm, and exact collapses preserve it), so the
            # outcome-1 numerator is the complement of the outcome-0 one at
            # the same 2**k scale — no second hyper-function build.  With
            # s != 1 the exact path is unused anyway (see project_qubit).
            exact = (ExactProbability((1 << self.state.k) - exact_zero.x,
                                      -exact_zero.y, self.state.k)
                     if self.state.s == 1.0 else None)
            probability = 1.0 - probability_zero
        self.state.project_qubit(qubit, outcome, probability, exact=exact)
        return outcome

    def measure_qubits(self, qubits: Sequence[int], rng=None,
                       forced_outcomes: Optional[Sequence[int]] = None) -> List[int]:
        """Measure several qubits sequentially (collapsing after each)."""
        outcomes: List[int] = []
        for position, qubit in enumerate(qubits):
            forced = None if forced_outcomes is None else forced_outcomes[position]
            outcomes.append(self.measure_qubit(qubit, rng=rng, forced_outcome=forced))
        return outcomes

    def sample(self, shots: int, qubits: Optional[Sequence[int]] = None,
               rng=None) -> Dict[int, int]:
        """Sample measurement outcomes without collapsing the state.

        One exact binomial descent through
        :func:`repro.core.sampling.sample_state`, so counts equal every
        other engine's at equal seeds (see
        :func:`repro.engines.sampling.sample_by_descent`).
        """
        from repro.core.sampling import sample_state

        return sample_state(self.state, shots, qubits=qubits, rng=rng)
