"""Exact shot sampling directly on the bit-sliced BDD representation.

The generic engine sampler answers each conditional-probability query with a
fresh probability query.  This module walks the *slices themselves* instead:

* fixing one more bit of the sampled prefix cofactors all ``4r`` slice nodes
  at the qubit's variable.  In level order that is the split the mass walk
  already made of the prefix's tuple (one step down a path per slice whose
  top variable is the qubit's), read back from
  :meth:`~repro.core.measurement.SliceMass.split`, or the tuple itself when
  it does not depend on the qubit; a tuple the walk has not split takes the
  step node by node, and only a fixed variable that lies below a free one
  (a permuted or partial qubit list, or a sifted order) falls back to one
  batched :meth:`~repro.bdd.manager.BddManager.restrict_many` call, and
* the probability mass of a prefix is the exact integer pair ``(x, y)`` that
  :class:`~repro.core.measurement.SliceMass` sums over the tuple of
  cofactor node ids — the total ``(x + y*sqrt(2)) / 2**k`` of
  ``|amplitude|**2`` without building a single BDD node.

The cofactor tuples of the prefixes are exactly the tuples the mass walk
splits into, so with one shared memo the whole descent costs one walk over
the distinct tuples.  Nodes of a prefix's tuple are anchored in
:class:`~repro.bdd.expr.Bdd` handles, so garbage collection or a reorder
between descent steps cannot reclaim them.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.bdd import Bdd
from repro.core.bitslice import BitSlicedState
from repro.core.measurement import ExactProbability, SliceMass


class SliceSampler:
    """Conditional-probability oracle over cofactors of one state.

    Parameters
    ----------
    state:
        The live :class:`~repro.core.bitslice.BitSlicedState` to sample
        from.  The sampler never mutates it; collapse-free sampling is the
        point.
    qubits:
        Measurement order; prefix bit ``i`` fixes ``qubits[i]``.

    Use :meth:`branch_probability` as the ``branch_probability`` callback of
    :func:`repro.engines.sampling.sample_by_descent` (or call
    :meth:`sample`), or query :meth:`prefix_mass` directly for the exact
    integer mass of a prefix.
    """

    def __init__(self, state: BitSlicedState, qubits: Sequence[int]):
        self.state = state
        self.manager = state.manager
        self.qubits = list(qubits)
        self._vars = [state.qubit_var(qubit) for qubit in self.qubits]
        # Position of an earlier occurrence of the same variable, if any.
        first: Dict[int, int] = {}
        self._repeat_of = [first.setdefault(var, position)
                           for position, var in enumerate(self._vars)]
        self._distinct = [0]
        for position, earlier in enumerate(self._repeat_of):
            self._distinct.append(self._distinct[-1] + (earlier == position))
        self._kernel = SliceMass(state)
        # prefix tuple -> cofactor node ids (a..d major, bit order).
        self._families: Dict[Tuple[int, ...], Tuple[int, ...]] = {
            (): tuple(bit.node for bit in state.all_slices())}
        self._anchors: Dict[int, Bdd] = {}
        self._masses: Dict[Tuple[int, ...], Tuple[int, int]] = {}
        #: Cofactor batches of the 4r slices, one per distinct prefix.
        self.restrict_batches = 0
        #: ``restrict_many`` calls, made only for a fixed variable below a
        #: free one (0 when the qubits are sampled in level order).
        self.fallback_restricts = 0
        #: Distinct prefixes whose mass was asked for.
        self.mass_evaluations = 0

    # ------------------------------------------------------------------ #
    # cofactor tuples
    # ------------------------------------------------------------------ #
    def _cofactor(self, nodes: Tuple[int, ...], var: int, value: int) -> Tuple[int, ...]:
        manager = self.manager
        level = manager._var_to_level[var]
        split = self._kernel.split(nodes)
        if split is not None and split[0] >= level:
            # The mass walk already split this tuple: its top level is the
            # qubit's (take the recorded half) or lies below it (the tuple
            # does not depend on the qubit).
            if split[0] > level:
                return nodes
            cofactor = split[2] if value else split[1]
            self._anchor(cofactor)
            return cofactor
        var_of, level_of = manager._var, manager._var_to_level
        child_of = manager._high if value else manager._low
        cofactor = list(nodes)
        below = []  # positions whose top variable lies above ``var``
        for position, node in enumerate(nodes):
            if node > 1:
                top = var_of[node]
                if top == var:
                    cofactor[position] = child_of[node]
                elif level_of[top] < level:
                    below.append(position)
        if below:
            restricted = manager.restrict_many(
                [cofactor[position] for position in below], var, bool(value))
            for position, node in zip(below, restricted):
                cofactor[position] = node
            self.fallback_restricts += 1
        cofactor = tuple(cofactor)
        self._anchor(cofactor)
        return cofactor

    def _anchor(self, nodes: Tuple[int, ...]) -> None:
        anchors = self._anchors
        for node in nodes:
            if node not in anchors:
                anchors[node] = Bdd(self.manager, node)

    def _family(self, prefix: Tuple[int, ...]) -> Tuple[int, ...]:
        depth = len(prefix)
        while prefix[:depth] not in self._families:
            depth -= 1
        family = self._families[prefix[:depth]]
        for position in range(depth, len(prefix)):
            earlier = self._repeat_of[position]
            if earlier == position:
                family = self._cofactor(family, self._vars[position], prefix[position])
            elif prefix[earlier] != prefix[position]:
                family = (0,) * len(family)  # a qubit fixed to both values
            self._families[prefix[:position + 1]] = family
            self.restrict_batches += 1
        return family

    # ------------------------------------------------------------------ #
    # exact masses and probabilities
    # ------------------------------------------------------------------ #
    def prefix_mass(self, prefix: Tuple[int, ...]) -> Tuple[int, int]:
        """Exact integer pair ``(x, y)``: the summed ``|amplitude|**2`` of
        every basis state consistent with ``prefix`` equals
        ``(x + y*sqrt(2)) / 2**(k + m)`` before the measurement factor
        ``s**2``, where ``m`` counts the distinct qubits the prefix fixes
        (``len(prefix)`` unless ``qubits`` repeats one).

        (The ``2**m`` accounts for summing over every qubit assignment: the
        cofactors do not depend on the fixed qubits, so each surviving basis
        state is counted once per assignment of them.)
        """
        cached = self._masses.get(prefix)
        if cached is None:
            cached = self._kernel.mass(self._family(prefix))
            self._masses[prefix] = cached
            self.mass_evaluations += 1
        return cached

    def prefix_exact(self, prefix: Tuple[int, ...]) -> ExactProbability:
        """Joint probability of ``prefix`` as an exact
        :class:`~repro.core.measurement.ExactProbability` over ``2**k``
        (before the measurement factor ``s**2``): :meth:`prefix_mass`
        shifted right by ``m`` on the integers, an exact division."""
        x, y = self.prefix_mass(prefix)
        shift = self._distinct[len(prefix)]
        return ExactProbability(x >> shift, y >> shift, self.state.k)

    def prefix_probability(self, prefix: Tuple[int, ...]) -> float:
        """Absolute joint probability of observing ``prefix`` on the first
        ``len(prefix)`` sampled qubits (including the measurement factor
        ``s**2``).  The float conversion comes after the exact shift, so it
        cannot overflow on registers wider than ~1023 qubits."""
        return self.prefix_exact(tuple(prefix)).to_float(self.state.s ** 2)

    #: Alias matching the ``sample_by_descent`` callback name.
    branch_probability = prefix_probability

    def sample(self, shots: int, rng) -> Dict[int, int]:
        """Draw ``shots`` outcomes by :func:`repro.engines.sampling.sample_by_descent`
        (first sampled qubit = most significant bit)."""
        from repro.engines.sampling import sample_by_descent

        return sample_by_descent(self.branch_probability, len(self.qubits), shots, rng)

    def statistics(self) -> Dict[str, int]:
        """Work counters of this sampler instance (for engine extras)."""
        return {
            "sampler_restrict_batches": self.restrict_batches,
            "sampler_mass_evaluations": self.mass_evaluations,
            "sampler_distinct_prefixes": len(self._families) - 1,
        }


def sample_state(state: BitSlicedState, shots: int,
                 qubits: Optional[Sequence[int]] = None, rng=None) -> Dict[int, int]:
    """Draw ``shots`` outcomes from ``state`` by exact binomial descent.

    Convenience wrapper around :meth:`SliceSampler.sample` (default: all
    qubits, a fresh unseeded generator); returns outcome-integer -> count
    with the first sampled qubit as the most significant bit.
    """
    if qubits is None:
        qubits = list(range(state.num_qubits))
    if rng is None:
        import numpy as np

        rng = np.random.default_rng()
    return SliceSampler(state, qubits).sample(shots, rng)


__all__ = ["SliceSampler", "sample_state"]
