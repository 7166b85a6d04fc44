"""User-facing BDD handles.

A :class:`Bdd` is a lightweight, immutable handle pairing a manager with a
node id.  Handles register themselves with the manager as external references
so that garbage collection keeps everything reachable from a live handle.

Handles support the natural Boolean operators::

    f & g       conjunction
    f | g       disjunction
    f ^ g       exclusive or
    ~f          negation
    f.ite(g, h) if-then-else
    f.cofactor(var, value)
    f.compose(var, g)
    f.exists(vars)

Equality between handles of the same manager is semantic equality of the
Boolean functions (which, for ROBDDs, is node-id equality).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.bdd.manager import BddManager


class Bdd:
    """Handle to a node owned by a :class:`~repro.bdd.manager.BddManager`."""

    __slots__ = ("manager", "node", "__weakref__")

    def __init__(self, manager: "BddManager", node: int):
        self.manager = manager
        self.node = node
        manager._incref(node)

    def __del__(self):  # pragma: no cover - depends on interpreter GC timing
        try:
            self.manager._decref(self.node)
        except Exception:
            pass

    # ------------------------------------------------------------------ #
    # constants and structure
    # ------------------------------------------------------------------ #
    def is_false(self) -> bool:
        """True iff this is the constant-false function."""
        from repro.bdd.manager import FALSE

        return self.node == FALSE

    def is_true(self) -> bool:
        """True iff this is the constant-true function."""
        from repro.bdd.manager import TRUE

        return self.node == TRUE

    def is_terminal(self) -> bool:
        """True for either constant."""
        return self.manager.is_terminal(self.node)

    @property
    def top_var(self) -> Optional[int]:
        """Variable index decided at the root, or ``None`` for constants."""
        if self.is_terminal():
            return None
        return self.manager.node_var(self.node)

    @property
    def low(self) -> "Bdd":
        """The 0-child (cofactor of the top variable at 0)."""
        if self.is_terminal():
            raise ValueError("terminal nodes have no children")
        return Bdd(self.manager, self.manager.node_low(self.node))

    @property
    def high(self) -> "Bdd":
        """The 1-child (cofactor of the top variable at 1)."""
        if self.is_terminal():
            raise ValueError("terminal nodes have no children")
        return Bdd(self.manager, self.manager.node_high(self.node))

    # ------------------------------------------------------------------ #
    # Boolean operations
    # ------------------------------------------------------------------ #
    def _check_same_manager(self, other: "Bdd") -> None:
        if self.manager is not other.manager:
            raise ValueError("cannot combine BDDs from different managers")

    def __and__(self, other: "Bdd") -> "Bdd":
        self._check_same_manager(other)
        return Bdd(self.manager, self.manager.apply_and(self.node, other.node))

    def __or__(self, other: "Bdd") -> "Bdd":
        self._check_same_manager(other)
        return Bdd(self.manager, self.manager.apply_or(self.node, other.node))

    def __xor__(self, other: "Bdd") -> "Bdd":
        self._check_same_manager(other)
        return Bdd(self.manager, self.manager.apply_xor(self.node, other.node))

    def __invert__(self) -> "Bdd":
        return Bdd(self.manager, self.manager.apply_not(self.node))

    def ite(self, then_bdd: "Bdd", else_bdd: "Bdd") -> "Bdd":
        """If-then-else with ``self`` as the condition."""
        self._check_same_manager(then_bdd)
        self._check_same_manager(else_bdd)
        return Bdd(self.manager,
                   self.manager.apply_ite(self.node, then_bdd.node, else_bdd.node))

    def implies(self, other: "Bdd") -> "Bdd":
        """Logical implication ``self -> other``."""
        return (~self) | other

    def equiv(self, other: "Bdd") -> "Bdd":
        """Logical equivalence ``self <-> other``."""
        return ~(self ^ other)

    def maj3(self, other: "Bdd", third: "Bdd") -> "Bdd":
        """Fused three-operand majority (the full-adder carry):
        ``self·other + self·third + other·third``, the carry half of one
        :meth:`~repro.bdd.manager.BddManager.apply_full_add` traversal."""
        self._check_same_manager(other)
        self._check_same_manager(third)
        return Bdd(self.manager,
                   self.manager.apply_maj3(self.node, other.node, third.node))

    def xor3(self, other: "Bdd", third: "Bdd") -> "Bdd":
        """Fused three-operand exclusive-or (the full-adder sum):
        ``self ^ other ^ third``, the sum half of one
        :meth:`~repro.bdd.manager.BddManager.apply_full_add` traversal."""
        self._check_same_manager(other)
        self._check_same_manager(third)
        return Bdd(self.manager,
                   self.manager.apply_xor3(self.node, other.node, third.node))

    def swap_vars(self, var_a: int, var_b: int) -> "Bdd":
        """The function with the roles of ``var_a`` / ``var_b`` exchanged
        (the Boolean action of a SWAP gate): the manager's controlled swap
        under a TRUE condition."""
        return Bdd(self.manager, self.manager.apply_swap_vars(self.node, var_a, var_b))

    def cofactor(self, var: int, value: bool) -> "Bdd":
        """Positive/negative cofactor with respect to ``var``."""
        return Bdd(self.manager, self.manager.apply_restrict(self.node, var, value))

    def cofactor_cube(self, assignments: Sequence[Tuple[int, bool]]) -> "Bdd":
        """Cofactor with respect to a cube of ``(var, value)`` literals."""
        return Bdd(self.manager, self.manager.apply_restrict_cube(self.node, assignments))

    def compose(self, var: int, function: "Bdd") -> "Bdd":
        """Substitute ``function`` for ``var``."""
        self._check_same_manager(function)
        return Bdd(self.manager, self.manager.apply_compose(self.node, var, function.node))

    def exists(self, variables: Sequence[int]) -> "Bdd":
        """Existentially quantify ``variables``."""
        return Bdd(self.manager, self.manager.apply_exists(self.node, variables))

    def forall(self, variables: Sequence[int]) -> "Bdd":
        """Universally quantify ``variables``."""
        return ~((~self).exists(variables))

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def evaluate(self, assignment: Dict[int, bool]) -> bool:
        """Evaluate under an assignment covering the support."""
        return self.manager.evaluate(self.node, assignment)

    def support(self) -> List[int]:
        """Sorted variable indices the function depends on."""
        return self.manager.support(self.node)

    def satcount(self, num_vars: Optional[int] = None) -> int:
        """Number of satisfying assignments over ``num_vars`` variables."""
        return self.manager.satcount(self.node, num_vars)

    def count_nodes(self) -> int:
        """Number of BDD nodes (including terminals) in this function."""
        return self.manager.count_nodes([self.node])

    def iter_satisfying(self, variables: Sequence[int]):
        """Iterate satisfying assignments over ``variables``."""
        return self.manager.iter_satisfying(self.node, variables)

    # ------------------------------------------------------------------ #
    # dunder plumbing
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bdd):
            return NotImplemented
        return self.manager is other.manager and self.node == other.node

    def __hash__(self) -> int:
        return hash((id(self.manager), self.node))

    def __bool__(self) -> bool:
        raise TypeError("Bdd truthiness is ambiguous; use is_true()/is_false()")

    def __repr__(self) -> str:
        if self.is_false():
            return "Bdd(FALSE)"
        if self.is_true():
            return "Bdd(TRUE)"
        return f"Bdd(node={self.node}, top_var={self.top_var})"
