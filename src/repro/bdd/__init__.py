"""A from-scratch, pure-Python ROBDD package.

This subpackage is the reproduction's substitute for CUDD (the C decision
diagram package used by the paper's implementation inside ABC).  It provides
everything the bit-sliced simulator needs:

* hash-consed reduced ordered BDD nodes with two terminals,
* the ITE operator plus direct AND / OR / XOR / NOT apply operations with a
  computed-table cache,
* cofactor / restrict, cube cofactor, existential quantification, variable
  composition,
* structural queries: support, node counting, satisfying-assignment counting,
  evaluation, truth-table export,
* mark-and-sweep garbage collection keyed on live :class:`~repro.bdd.expr.Bdd`
  handles, and
* in-place dynamic variable reordering: adjacent-level swaps, Rudell
  sifting and a growth-triggered automatic mode, all preserving every
  registered handle (plus the static order helpers).

The public entry point is :class:`~repro.bdd.manager.BddManager`; user code
manipulates :class:`~repro.bdd.expr.Bdd` handles returned by it.
"""

from repro._exports import lazy_exports
from repro.bdd.manager import BddManager
from repro.bdd.expr import Bdd

# The order helpers and the analysis exports are imported on first access
# (PEP 562), so a simulation run does not load them.
__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.bdd.ordering": ("natural_order", "interleaved_order", "sift"),
    "repro.bdd.analysis": ("count_nodes", "dag_export", "satisfying_assignments",
                           "truth_table", "to_dot"),
})

__all__ = [
    "BddManager",
    "Bdd",
    "natural_order",
    "interleaved_order",
    "sift",
    "count_nodes",
    "dag_export",
    "satisfying_assignments",
    "truth_table",
    "to_dot",
]
