"""The paper's primary contribution: bit-sliced BDD quantum simulation.

The pipeline is:

* :class:`~repro.core.bitslice.BitSlicedState` — an ``n``-qubit quantum state
  stored as ``4*r`` BDDs (bit-planes of the integer vectors ``a, b, c, d`` of
  the algebraic representation) plus the shared exponent ``k`` and the
  floating-point normalisation factor ``s`` introduced by measurement.
* :mod:`~repro.core.gate_rules` — the pre-characterised Boolean update
  formulas of the paper's Table II, one function per supported gate, built on
  cofactors and symbolic ripple-carry adders.
* :mod:`~repro.core.measurement` — the monolithic hyper-function BDD of
  Eq. (12), exact accumulated-probability computation, sampling and collapse.
* :class:`~repro.core.simulator.BitSliceSimulator` — the user-facing engine
  tying the above together, with the resource-limit hooks the benchmark
  harness uses.
"""

from repro._exports import lazy_exports
from repro.core.bitslice import BitSlicedState
from repro.core.simulator import BitSliceSimulator
from repro.core.measurement import MeasurementEngine

# The equivalence checks are imported on first access (PEP 562), so a
# simulation run does not load them.
__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.equivalence": ("EquivalenceReport", "circuits_equivalent",
                               "states_equal_exact"),
})

__all__ = [
    "BitSlicedState",
    "BitSliceSimulator",
    "MeasurementEngine",
    "EquivalenceReport",
    "circuits_equivalent",
    "states_equal_exact",
]
