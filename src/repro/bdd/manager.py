"""The ROBDD manager: node store, unique table, and core operations.

The manager owns every node.  A node is identified by a small integer id; the
two terminals are ``FALSE = 0`` and ``TRUE = 1``.  Internal nodes are triples
``(var, low, high)`` interned in the unique table so that structural equality
of functions is pointer (id) equality, the defining property of reduced
ordered BDDs.

Variables are identified by an integer *index* assigned at creation time.  The
manager separately maintains a variable *order* (``var_to_level`` /
``level_to_var``); all operations compare nodes by level so the order can be
changed (see :mod:`repro.bdd.ordering`) without renaming variables.

Hot-path design (every gate of the bit-sliced simulator funnels through
here, so the constant factors of this file dominate end-to-end runtime):

* **Per-operation computed tables** indexed by small integer op tags instead
  of one shared dict keyed on string-tagged tuples.  Binary-operation keys
  pack both node ids into a single integer, which hashes faster than a tuple.
* **Commutative canonicalisation**: AND / OR / XOR arguments are ordered
  ``f <= g`` before the table lookup, halving the effective key space.
* **ITE standard-triple reduction**: ``ite(f, 1, h)`` routes to OR,
  ``ite(f, g, 0)`` to AND, ``ite(f, 0, h)`` to ``~f & h`` and
  ``ite(f, g, 1)`` to ``~f | g``, so ITE-heavy workloads share the binary
  computed tables instead of fragmenting their memoisation.
* **Recursive closures, one explicit-stack driver for deep managers**: up to
  ``_MAX_RECURSIVE_VARS`` (600) variables every operation runs as a
  recursive closure (the fast path); past that, apply depth could reach the
  interpreter's recursion limit, so every operation runs on
  :meth:`BddManager._stack_apply`, one work-stack driver to which each
  operation contributes only its terminal rules and cofactor step.  Both
  forms return the same node ids and count the same table traffic.
* **Fused multi-operand kernels**: :meth:`BddManager.apply_full_add`
  builds the full-adder sum ``a ^ b ^ c`` *and* carry ``ab + ac + bc`` in
  one traversal of the three operands, with one ternary computed table
  whose entries pack both node ids into one int, instead of chaining
  generic 2-operand applies that materialise intermediate BDDs.
  :meth:`BddManager.apply_xor3` and :meth:`BddManager.apply_maj3` read one
  half of its pair.  A conditional negation ``ite(c, not f, f)`` is the
  plain XOR ``c ^ f``, with no NOT sweep over all of ``f`` first.
* **One permutation kernel**: :meth:`BddManager.apply_controlled_flip` and
  :meth:`BddManager.apply_controlled_swap` compute ``ite(c, act(f), f)``
  (CX / CCX / CSWAP with ``c`` the control cube, X / SWAP with ``c`` TRUE)
  by splitting ``(f, c)`` down to the action's variables instead of running
  the action over all of ``f`` and an ITE over the result.  ``TRUE`` is the
  plain action: the flip exchanges the children at the target's level and
  the swap walks the band between its variables once per half, so
  :meth:`BddManager.apply_flip` and :meth:`BddManager.apply_swap_vars` are
  this kernel under ``TRUE``, not kernels of their own.  It memoises in the
  ITE table under tuple keys and counts as ``ite``.
* **Butterfly adder in one traversal**: :meth:`BddManager.butterfly_add_many`
  is one bit position of the H, Rx(pi/2) and Ry(pi/2) adders: it walks a
  slice, its partner slice and the carry down to the target variable and
  runs the fused full adder once per side of it there, instead of
  cofactor, XOR / NOT or flip sweeps followed by a full-adder sweep; it
  memoises in the ``maj3`` table under tuple keys and counts as ``maj3``.
* **Batched application**: the ``*_many`` methods (:meth:`BddManager.and_many`,
  :meth:`BddManager.full_add_many`, ...) run one operation over many operand
  tuples as one transaction — one computed-table binding, one interner, one
  counter fold — so a 4r-slice gate update pays the per-operation setup once
  instead of 4r times.
* **Size-bounded tables with generation-based invalidation**: each table is
  flushed when it exceeds ``cache_size_limit`` entries (checked at operation
  boundaries), and every garbage collection or variable reorder advances a
  generation counter while swapping in fresh tables, so stale node ids can
  never be served.
* **In-place dynamic variable reordering**: :meth:`BddManager.swap_adjacent_levels`
  exchanges two neighbouring levels by rewiring only the upper level's
  nodes (node ids keep their functions, so external references survive),
  :meth:`BddManager.sift` runs Rudell sifting on top of it, and
  :meth:`BddManager.maybe_reorder` triggers sifting automatically when the
  node store grows past ``auto_reorder_threshold`` — the same
  operation-boundary pattern as ``auto_gc_threshold``.
  :meth:`BddManager.set_order` is a sequence of adjacent swaps, so
  installing an explicit order also preserves every registered reference.

Garbage collection is mark-and-sweep over the roots registered by live
:class:`repro.bdd.expr.Bdd` handles; freed slots are recycled.  All cache,
unique-table and GC activity is counted; :meth:`BddManager.perf_stats`
exposes the counters and :mod:`repro.perf` builds spans / reports on top.
"""

from __future__ import annotations

import time
from functools import partial
from itertools import starmap
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.bdd.expr import Bdd

#: Terminal node ids.
FALSE = 0
TRUE = 1

#: Integer operation tags indexing the per-operation computed tables.
OP_AND = 0
OP_OR = 1
OP_XOR = 2
OP_NOT = 3
OP_ITE = 4
OP_RESTRICT = 5
OP_EXISTS = 6
OP_COMPOSE = 7
OP_MAJ3 = 8
OP_XOR3 = 9
OP_SWAPVARS = 10
_NUM_OPS = 11

#: Human-readable op names, index-aligned with the op tags (used for stats).
OP_NAMES = ("and", "or", "xor", "not", "ite", "restrict", "exists", "compose",
            "maj3", "xor3", "swapvars")

#: Mode bits of one butterfly adder step (:meth:`BddManager.butterfly_add_many`):
#: subtract on the ``q = 0`` / ``q = 1`` side (add the complement of the
#: second operand), and cross the operands' sides (``f|q=s`` with
#: ``g|q=1-s``, Rx(pi/2)) instead of pairing ``f|q=0`` with ``g|q=1`` on both
#: (H, Ry(pi/2)).
BUTTERFLY_SUB_LOW = 1
BUTTERFLY_SUB_HIGH = 2
BUTTERFLY_CROSS = 4

#: Node ids and variable indices are packed into single-integer cache keys.
#: 30 bits bounds both at ~10**9, far beyond what one process can hold.
_KEY_BITS = 30
_KEY_MASK = (1 << _KEY_BITS) - 1

#: Managers with at most this many variables use the recursive fast path
#: (apply depth is bounded by the number of levels plus a constant, so this
#: keeps a wide margin below CPython's default 1000-frame recursion limit);
#: deeper managers switch to the explicit-stack implementations.
_MAX_RECURSIVE_VARS = 600

#: Marks a build step on the explicit-stack driver's work stack; the
#: computed-table key and the branching variable sit right below it.
_BUILD = object()


class BddManager:
    """Owns BDD nodes and implements the core symbolic operations.

    Parameters
    ----------
    num_vars:
        Number of variables to create eagerly.  More can be added later with
        :meth:`new_var`.
    auto_gc_threshold:
        When the node store grows past this many live nodes the manager runs
        a garbage collection automatically at the next safe point (entry to a
        top-level operation).  ``None`` disables automatic collection.
    cache_size_limit:
        Maximum number of entries per per-operation computed table.  A table
        exceeding the limit is flushed at the next operation boundary (an
        eviction, counted in :meth:`perf_stats`).  ``None`` disables the
        bound.
    auto_reorder_threshold:
        When the live node count grows past this threshold the manager runs
        an in-place :meth:`sift` at the next safe point (a call to
        :meth:`maybe_reorder`, issued by the simulator at gate boundaries
        next to :meth:`maybe_collect`).  After a triggered reorder the
        threshold backs off geometrically (see :meth:`maybe_reorder`) so a
        workload that genuinely needs many nodes does not thrash.  ``None``
        (the default) disables automatic reordering.
    """

    def __init__(self, num_vars: int = 0, auto_gc_threshold: Optional[int] = 1_000_000,
                 cache_size_limit: Optional[int] = 2_000_000,
                 auto_reorder_threshold: Optional[int] = None):
        # Parallel arrays describing nodes.  Slots 0 and 1 are the terminals.
        self._var: List[int] = [-1, -1]
        self._low: List[int] = [-1, -1]
        self._high: List[int] = [-1, -1]
        # Unique table: (var, low, high) -> node id.
        self._unique: Dict[Tuple[int, int, int], int] = {}
        # Per-operation computed tables, indexed by op tag.
        self._tables: List[Dict] = [dict() for _ in range(_NUM_OPS)]
        # Memoised single-root DAG sizes (root id -> node count); follows the
        # computed tables' generation-based invalidation because node ids can
        # be recycled by garbage collection.
        self._size_cache: Dict[int, int] = {}
        # The last multi-root count as (roots tuple, count); same lifetime.
        self._last_multi_count: Optional[Tuple[Tuple[int, ...], int]] = None
        # Free slots available for reuse after garbage collection.
        self._free: List[int] = []
        # Variable order bookkeeping.
        self._var_to_level: List[int] = []
        self._level_to_var: List[int] = []
        # Live external references: node id -> reference count.
        self._external_refs: Dict[int, int] = {}
        self._auto_gc_threshold = auto_gc_threshold
        self._cache_size_limit = cache_size_limit
        self._auto_reorder_threshold = auto_reorder_threshold
        self._gc_count = 0
        # Performance counters (see perf_stats).
        self._op_hits: List[int] = [0] * _NUM_OPS
        self._op_misses: List[int] = [0] * _NUM_OPS
        self._unique_probes = 0
        self._unique_inserts = 0
        self._batch_runs = 0
        self._batch_items = 0
        self._cache_evictions = 0
        self._cache_generation = 0
        self._gc_pause_seconds = 0.0
        self._gc_freed_nodes = 0
        # Reordering counters (see perf_stats): reorder_count / swaps /
        # pause are monotone; the nodes_before/after pair is a gauge of the
        # most recent reorder operation.
        self._reorder_count = 0
        self._reorder_swaps = 0
        self._reorder_pause_seconds = 0.0
        self._reorder_nodes_before = 0
        self._reorder_nodes_after = 0
        self._peak_live_nodes = 2
        for _ in range(num_vars):
            self.new_var()

    # ------------------------------------------------------------------ #
    # variables and terminals
    # ------------------------------------------------------------------ #
    @property
    def num_vars(self) -> int:
        """Number of variables known to the manager."""
        return len(self._var_to_level)

    def new_var(self) -> int:
        """Create a fresh variable at the bottom of the current order and
        return its index."""
        index = len(self._var_to_level)
        self._var_to_level.append(len(self._level_to_var))
        self._level_to_var.append(index)
        return index

    def var(self, index: int) -> Bdd:
        """The BDD of the single positive literal ``x_index``."""
        self._check_var(index)
        return self._wrap(self._mk(index, FALSE, TRUE))

    def var_node(self, index: int) -> int:
        """Raw node id of the positive literal ``x_index``.

        Hot-path sibling of :meth:`var` for node-level callers (the batched
        gate rules): no handle is allocated and no external reference is
        registered, so the caller must keep the id reachable through some
        live handle before the next garbage collection.
        """
        self._check_var(index)
        return self._mk(index, FALSE, TRUE)

    def nvar(self, index: int) -> Bdd:
        """The BDD of the single negative literal ``not x_index``."""
        self._check_var(index)
        return self._wrap(self._mk(index, TRUE, FALSE))

    def literal(self, index: int, phase: bool) -> Bdd:
        """``x_index`` if ``phase`` is truthy, else ``not x_index``."""
        return self.var(index) if phase else self.nvar(index)

    @property
    def false(self) -> Bdd:
        """The constant-false BDD."""
        return self._wrap(FALSE)

    @property
    def true(self) -> Bdd:
        """The constant-true BDD."""
        return self._wrap(TRUE)

    def _check_var(self, index: int) -> None:
        if not 0 <= index < self.num_vars:
            raise ValueError(f"unknown variable index {index}")

    # ------------------------------------------------------------------ #
    # order accessors
    # ------------------------------------------------------------------ #
    def level_of(self, var_index: int) -> int:
        """Current level (position in the order, 0 = top) of a variable."""
        return self._var_to_level[var_index]

    def var_at_level(self, level: int) -> int:
        """Variable index currently placed at ``level``."""
        return self._level_to_var[level]

    def current_order(self) -> List[int]:
        """The current order as a list of variable indices from top to bottom."""
        return list(self._level_to_var)

    # ------------------------------------------------------------------ #
    # node construction
    # ------------------------------------------------------------------ #
    def _mk(self, var: int, low: int, high: int) -> int:
        """Find-or-create the node ``(var, low, high)`` applying the
        reduction rule ``low == high``.

        Single-shot form for call sites that intern one node at a time
        (variable creation, reorder's rebuild).  Per-node hot loops use
        :meth:`_interner` instead, whose ``make`` closure implements the
        identical invariants with zero attribute lookups; change the
        interning rule in BOTH places or not at all.
        """
        if low == high:
            return low
        key = (var, low, high)
        self._unique_probes += 1
        node = self._unique.get(key)
        if node is not None:
            return node
        if self._free:
            node = self._free.pop()
            self._var[node] = var
            self._low[node] = low
            self._high[node] = high
        else:
            node = len(self._var)
            self._var.append(var)
            self._low.append(low)
            self._high.append(high)
        self._unique[key] = node
        self._unique_inserts += 1
        return node

    def _wrap(self, node: int) -> Bdd:
        return Bdd(self, node)

    # -- external reference management used by Bdd handles -------------- #
    def _incref(self, node: int) -> None:
        self._external_refs[node] = self._external_refs.get(node, 0) + 1

    def _decref(self, node: int) -> None:
        count = self._external_refs.get(node)
        if count is None:
            return
        if count <= 1:
            del self._external_refs[node]
        else:
            self._external_refs[node] = count - 1

    # ------------------------------------------------------------------ #
    # structural accessors
    # ------------------------------------------------------------------ #
    def node_var(self, node: int) -> int:
        """Variable index decided at ``node`` (-1 for terminals)."""
        return self._var[node]

    def node_low(self, node: int) -> int:
        """0-child of ``node``."""
        return self._low[node]

    def node_high(self, node: int) -> int:
        """1-child of ``node``."""
        return self._high[node]

    def is_terminal(self, node: int) -> bool:
        """True for the FALSE / TRUE terminals."""
        return node == FALSE or node == TRUE

    def num_live_nodes(self) -> int:
        """Number of allocated (non-freed) nodes including terminals."""
        return len(self._var) - len(self._free)

    # ------------------------------------------------------------------ #
    # operation boundary bookkeeping
    # ------------------------------------------------------------------ #
    def _fold(self, op: int, table: Dict, hits: int, misses: int, ucounts) -> None:
        """Close one transaction of ``op``: fold its computed-table hits and
        misses and its :meth:`_interner` ``[probes, inserts]`` into the perf
        counters, bound the table size and refresh the live-node peak.
        Called once per transaction, so the per-node-visit cost stays zero."""
        self._op_hits[op] += hits
        self._op_misses[op] += misses
        self._unique_probes += ucounts[0]
        self._unique_inserts += ucounts[1]
        limit = self._cache_size_limit
        if limit is not None and len(table) > limit:
            table.clear()
            self._cache_evictions += 1
        live = len(self._var) - len(self._free)
        if live > self._peak_live_nodes:
            self._peak_live_nodes = live

    # ------------------------------------------------------------------ #
    # core operations
    # ------------------------------------------------------------------ #
    def _recursion_safe(self) -> bool:
        """True when apply depth (bounded by the level count) comfortably
        fits the interpreter's recursion limit."""
        return len(self._level_to_var) <= _MAX_RECURSIVE_VARS

    def _worker(self, make_rec, make_stack, *config):
        """The ``(rec, finish)`` worker of one transaction: the recursive
        closure ``make_rec(*config)`` when :meth:`_recursion_safe`, else its
        explicit-stack twin ``make_stack(*config)``.  Both return the same
        node ids and count the same table traffic."""
        return (make_rec if self._recursion_safe() else make_stack)(*config)

    def _interner(self):
        """Find-or-create bound to the current node stores.

        Returns ``(make, counts)``: ``make(var, low, high)`` interns a node
        (applying the ``low == high`` reduction) touching only closure
        locals, and ``counts`` is a ``[probes, inserts]`` list the caller
        folds into the perf counters when its operation completes.  Shared
        by the recursive and iterative operation twins; :meth:`_mk` is the
        single-shot sibling — keep the two in lockstep.
        """
        var_arr = self._var
        low_arr = self._low
        high_arr = self._high
        unique = self._unique
        unique_get = unique.get
        free = self._free
        counts = [0, 0]

        def make(var: int, low: int, high: int) -> int:
            if low == high:
                return low
            ukey = (var, low, high)
            counts[0] += 1
            node = unique_get(ukey)
            if node is None:
                counts[1] += 1
                if free:
                    node = free.pop()
                    var_arr[node] = var
                    low_arr[node] = low
                    high_arr[node] = high
                else:
                    node = len(var_arr)
                    var_arr.append(var)
                    low_arr.append(low)
                    high_arr.append(high)
                unique[ukey] = node
            return node

        return make, counts

    @staticmethod
    def _apply_once(worker, *args) -> int:
        """Run a ``(rec, finish)`` worker on one operand tuple as a
        transaction of its own (the single-shot operations' front end)."""
        rec, finish = worker
        result = rec(*args)
        finish()
        return result

    def _run_batch(self, mapper, items, make_rec, make_stack, *config) -> List[int]:
        """Run one operation over many operands as a single transaction:
        one :meth:`_worker` (one computed-table binding, one interner, one
        counter fold) for the whole batch instead of one per item.

        ``mapper`` is :func:`map` for single node ids or
        :func:`itertools.starmap` for operand tuples.  An empty batch returns
        ``[]`` and is not counted in ``batch_runs`` / ``batch_items``.
        """
        items = list(items)
        if not items:
            return []
        self._batch_runs += 1
        self._batch_items += len(items)
        rec, finish = self._worker(make_rec, make_stack, *config)
        out = list(mapper(rec, items))
        finish()
        return out

    def _stack_apply(self, op: int, table: Dict, visit, make, ucounts,
                     combine=None, nested=()):
        """The explicit-stack driver behind every operation on managers too
        deep for the recursive closures.

        Returns ``(rec, finish)`` with the contract of
        :meth:`_make_binary_rec`, but ``rec(*args)`` runs a work stack
        instead of Python recursion, so no apply depth can reach the
        interpreter's recursion limit.  The driver owns what every operation
        shares: the computed-table lookup and its hit / miss counts, the
        build step and memo store, and (in ``finish``) the :meth:`_fold`.
        The operation supplies only ``visit(args)``, which applies its
        terminal and normalisation rules to one operand tuple and returns
        one of

        * a finished node id;
        * ``(key, var, low_args, high_args)``, a cofactor step: on a table
          miss both operand tuples are solved and ``make(var, low, high)``
          (or ``combine(var, low, high)``) is stored under ``key``;
        * ``(key, thunk)``: on a table miss ``thunk()`` gives the node.

        ``make`` / ``ucounts`` are the :meth:`_interner` that ``visit``
        builds with.  ``nested`` holds the ``finish`` callbacks of workers
        that ``visit`` delegates to; they fold first, as in the recursive
        factories, so both twins bound their tables at the same moments.
        """
        table_get = table.get
        build = make if combine is None else combine
        hits = 0
        misses = 0

        def rec(*args) -> int:
            nonlocal hits, misses
            tasks = [args]
            push = tasks.append
            pop = tasks.pop
            results: List[int] = []
            rpush = results.append
            rpop = results.pop
            while tasks:
                task = pop()
                if task is _BUILD:
                    key = pop()
                    var = pop()
                    high = rpop()
                    node = build(var, rpop(), high)
                    table[key] = node
                    rpush(node)
                    continue
                step = visit(task)
                if step.__class__ is int:
                    rpush(step)
                    continue
                key = step[0]
                node = table_get(key)
                if node is not None:
                    hits += 1
                    rpush(node)
                    continue
                misses += 1
                if len(step) == 2:
                    node = step[1]()
                    table[key] = node
                    rpush(node)
                    continue
                # Flat entries: a stack of int-only tuples stays out of the
                # cyclic collector's way on deep walks.
                _, var, low_args, high_args = step
                push(var)
                push(key)
                push(_BUILD)
                push(high_args)
                push(low_args)
            return results[0]

        def finish() -> None:
            for nested_finish in nested:
                nested_finish()
            self._fold(op, table, hits, misses, ucounts)

        return rec, finish

    def _top_cofactors(self, a: int, b: int, c: int):
        """Cofactor an operand triple on its top variable:
        ``(var, (a0, b0, c0), (a1, b1, c1))``.  Shared by the three-operand
        visits (ITE, full adder) of the explicit-stack driver."""
        var_arr = self._var
        low_arr = self._low
        high_arr = self._high
        v2l = self._var_to_level
        alev = v2l[var_arr[a]]
        blev = v2l[var_arr[b]]
        clev = v2l[var_arr[c]]
        top = min(alev, blev, clev)
        a0, a1 = (low_arr[a], high_arr[a]) if alev == top else (a, a)
        b0, b1 = (low_arr[b], high_arr[b]) if blev == top else (b, b)
        c0, c1 = (low_arr[c], high_arr[c]) if clev == top else (c, c)
        return self._level_to_var[top], (a0, b0, c0), (a1, b1, c1)

    def _make_binary_rec(self, op: int, table: Dict):
        """Build the recursive worker for a commutative binary connective.

        Returns ``(rec, finish)``: ``rec(f, g)`` is a *total* recursive apply
        (it resolves terminal rules itself, so callers may invoke it on any
        operand pair, any number of times until ``finish``), and
        ``finish()`` closes the transaction with :meth:`_fold`.  Everything
        the inner loop touches is bound to closure cells once, so per-node
        work is dict probes and list indexing with no attribute lookups —
        and a batch (:meth:`_run_batch`) pays that binding once for an
        entire slice sweep instead of once per root pair.  ``finish`` also
        drops ``rec``, which refers to itself through its closure cell, so
        no worker leaves a reference cycle holding the manager.  Only used
        when :meth:`_recursion_safe`; the explicit-stack twin below handles
        deep managers.
        """
        var_arr = self._var
        low_arr = self._low
        high_arr = self._high
        v2l = self._var_to_level
        table_get = table.get
        apply_not = self.apply_not
        make, ucounts = self._interner()
        hits = 0
        misses = 0

        if op == OP_AND:
            def rec(a: int, b: int) -> int:
                nonlocal hits, misses
                if a == 0 or b == 0:
                    return 0
                if a == 1:
                    return b
                if b == 1 or a == b:
                    return a
                if a > b:
                    a, b = b, a
                key = (a << _KEY_BITS) | b
                node = table_get(key)
                if node is not None:
                    hits += 1
                    return node
                misses += 1
                avar = var_arr[a]
                bvar = var_arr[b]
                alev = v2l[avar]
                blev = v2l[bvar]
                if alev == blev:
                    node = make(avar, rec(low_arr[a], low_arr[b]),
                                rec(high_arr[a], high_arr[b]))
                elif alev < blev:
                    node = make(avar, rec(low_arr[a], b), rec(high_arr[a], b))
                else:
                    node = make(bvar, rec(a, low_arr[b]), rec(a, high_arr[b]))
                table[key] = node
                return node
        elif op == OP_OR:
            def rec(a: int, b: int) -> int:
                nonlocal hits, misses
                if a == 1 or b == 1:
                    return 1
                if a == 0:
                    return b
                if b == 0 or a == b:
                    return a
                if a > b:
                    a, b = b, a
                key = (a << _KEY_BITS) | b
                node = table_get(key)
                if node is not None:
                    hits += 1
                    return node
                misses += 1
                avar = var_arr[a]
                bvar = var_arr[b]
                alev = v2l[avar]
                blev = v2l[bvar]
                if alev == blev:
                    node = make(avar, rec(low_arr[a], low_arr[b]),
                                rec(high_arr[a], high_arr[b]))
                elif alev < blev:
                    node = make(avar, rec(low_arr[a], b), rec(high_arr[a], b))
                else:
                    node = make(bvar, rec(a, low_arr[b]), rec(a, high_arr[b]))
                table[key] = node
                return node
        else:  # OP_XOR
            def rec(a: int, b: int) -> int:
                nonlocal hits, misses
                if a == b:
                    return 0
                if a == 0:
                    return b
                if b == 0:
                    return a
                if a == 1:
                    return apply_not(b)
                if b == 1:
                    return apply_not(a)
                if a > b:
                    a, b = b, a
                key = (a << _KEY_BITS) | b
                node = table_get(key)
                if node is not None:
                    hits += 1
                    return node
                misses += 1
                avar = var_arr[a]
                bvar = var_arr[b]
                alev = v2l[avar]
                blev = v2l[bvar]
                if alev == blev:
                    node = make(avar, rec(low_arr[a], low_arr[b]),
                                rec(high_arr[a], high_arr[b]))
                elif alev < blev:
                    node = make(avar, rec(low_arr[a], b), rec(high_arr[a], b))
                else:
                    node = make(bvar, rec(a, low_arr[b]), rec(a, high_arr[b]))
                table[key] = node
                return node

        def finish() -> None:
            nonlocal rec
            rec = None
            self._fold(op, table, hits, misses, ucounts)

        return rec, finish

    def _make_binary_stack(self, op: int, table: Dict):
        """Explicit-stack twin of :meth:`_make_binary_rec` (deep managers)."""
        var_arr = self._var
        low_arr = self._low
        high_arr = self._high
        v2l = self._var_to_level
        apply_not = self.apply_not
        xor = op == OP_XOR
        # AND absorbs FALSE and passes TRUE through, OR the reverse.
        absorbing = FALSE if op == OP_AND else TRUE
        neutral = absorbing ^ 1

        def visit(args):
            a, b = args
            if xor:
                if a == b:
                    return 0
                if a == 0:
                    return b
                if b == 0:
                    return a
                if a == 1:
                    return apply_not(b)
                if b == 1:
                    return apply_not(a)
            else:
                if a == absorbing or b == absorbing:
                    return absorbing
                if a == neutral:
                    return b
                if b == neutral or a == b:
                    return a
            if a > b:
                a, b = b, a
            key = (a << _KEY_BITS) | b
            avar = var_arr[a]
            bvar = var_arr[b]
            alev = v2l[avar]
            blev = v2l[bvar]
            if alev == blev:
                return key, avar, (low_arr[a], low_arr[b]), (high_arr[a], high_arr[b])
            if alev < blev:
                return key, avar, (low_arr[a], b), (high_arr[a], b)
            return key, bvar, (a, low_arr[b]), (a, high_arr[b])

        make, ucounts = self._interner()
        return self._stack_apply(op, table, visit, make, ucounts)

    def apply_and(self, f: int, g: int) -> int:
        """Conjunction of two node ids."""
        if f == 0 or g == 0:
            return 0
        if f == 1:
            return g
        if g == 1 or f == g:
            return f
        if f > g:
            f, g = g, f
        table = self._tables[OP_AND]
        node = table.get((f << _KEY_BITS) | g)
        if node is not None:
            self._op_hits[OP_AND] += 1
            return node
        worker = self._worker(self._make_binary_rec, self._make_binary_stack, OP_AND, table)
        return self._apply_once(worker, f, g)

    def apply_or(self, f: int, g: int) -> int:
        """Disjunction of two node ids."""
        if f == 1 or g == 1:
            return 1
        if f == 0:
            return g
        if g == 0 or f == g:
            return f
        if f > g:
            f, g = g, f
        table = self._tables[OP_OR]
        node = table.get((f << _KEY_BITS) | g)
        if node is not None:
            self._op_hits[OP_OR] += 1
            return node
        worker = self._worker(self._make_binary_rec, self._make_binary_stack, OP_OR, table)
        return self._apply_once(worker, f, g)

    def apply_xor(self, f: int, g: int) -> int:
        """Exclusive-or of two node ids."""
        if f == g:
            return 0
        if f == 0:
            return g
        if g == 0:
            return f
        if f == 1:
            return self.apply_not(g)
        if g == 1:
            return self.apply_not(f)
        if f > g:
            f, g = g, f
        table = self._tables[OP_XOR]
        node = table.get((f << _KEY_BITS) | g)
        if node is not None:
            self._op_hits[OP_XOR] += 1
            return node
        worker = self._worker(self._make_binary_rec, self._make_binary_stack, OP_XOR, table)
        return self._apply_once(worker, f, g)

    def apply_not(self, f: int) -> int:
        """Negation of a node id."""
        if f < 2:
            return f ^ 1
        table = self._tables[OP_NOT]
        node = table.get(f)
        if node is not None:
            self._op_hits[OP_NOT] += 1
            return node
        worker = self._worker(self._make_not_rec, self._make_not_stack, table)
        return self._apply_once(worker, f)

    def _make_not_rec(self, table: Dict):
        """Recursive negation worker factory (``(rec, finish)`` contract of
        :meth:`_make_binary_rec`)."""
        var_arr = self._var
        low_arr = self._low
        high_arr = self._high
        table_get = table.get
        make, ucounts = self._interner()
        hits = 0
        misses = 0

        def rec(a: int) -> int:
            nonlocal hits, misses
            if a < 2:
                return a ^ 1
            node = table_get(a)
            if node is not None:
                hits += 1
                return node
            misses += 1
            node = make(var_arr[a], rec(low_arr[a]), rec(high_arr[a]))
            table[a] = node
            return node

        def finish() -> None:
            nonlocal rec
            rec = None
            self._fold(OP_NOT, table, hits, misses, ucounts)

        return rec, finish

    def _make_not_stack(self, table: Dict):
        """Explicit-stack twin of :meth:`_make_not_rec` (deep managers)."""
        var_arr = self._var
        low_arr = self._low
        high_arr = self._high

        def visit(args):
            a = args[0]
            if a < 2:
                return a ^ 1
            return a, var_arr[a], (low_arr[a],), (high_arr[a],)

        make, ucounts = self._interner()
        return self._stack_apply(OP_NOT, table, visit, make, ucounts)

    def apply_ite(self, f: int, g: int, h: int) -> int:
        """If-then-else: ``(f and g) or (not f and h)``.

        Applies the Brace–Rudell–Bryant standard-triple reductions first,
        routing the degenerate shapes into the shared AND / OR tables; the
        residual three-operand cases recurse (or run an explicit stack on
        deep managers) under the ITE computed table.
        """
        if f == 1:
            return g
        if f == 0:
            return h
        if g == f:
            g = 1
        if h == f:
            h = 0
        if g == h:
            return g
        if g == 1:
            if h == 0:
                return f
            return self.apply_or(f, h)
        if h == 0:
            return self.apply_and(f, g)
        if g == 0:
            return self.apply_and(self.apply_not(f), h)
        if h == 1:
            return self.apply_or(self.apply_not(f), g)
        table = self._tables[OP_ITE]
        key = (((f << _KEY_BITS) | g) << _KEY_BITS) | h
        node = table.get(key)
        if node is not None:
            self._op_hits[OP_ITE] += 1
            return node
        worker = self._worker(self._make_ite_rec, self._make_ite_stack, table)
        return self._apply_once(worker, f, g, h)

    def _make_ite_rec(self, table: Dict):
        """Recursive ITE worker factory (see :meth:`_make_binary_rec` for the
        ``(rec, finish)`` contract).  ``rec`` handles every standard-triple
        reduction itself, so batched callers can feed it raw triples."""
        var_arr = self._var
        low_arr = self._low
        high_arr = self._high
        v2l = self._var_to_level
        l2v = self._level_to_var
        table_get = table.get
        apply_and = self.apply_and
        apply_or = self.apply_or
        apply_not = self.apply_not
        make, ucounts = self._interner()
        hits = 0
        misses = 0

        def rec(a: int, b: int, c: int) -> int:
            nonlocal hits, misses
            if a == 1:
                return b
            if a == 0:
                return c
            if b == a:
                b = 1
            if c == a:
                c = 0
            if b == c:
                return b
            if b == 1:
                if c == 0:
                    return a
                return apply_or(a, c)
            if c == 0:
                return apply_and(a, b)
            if b == 0:
                return apply_and(apply_not(a), c)
            if c == 1:
                return apply_or(apply_not(a), b)
            key = (((a << _KEY_BITS) | b) << _KEY_BITS) | c
            node = table_get(key)
            if node is not None:
                hits += 1
                return node
            misses += 1
            alev = v2l[var_arr[a]]
            blev = v2l[var_arr[b]]
            clev = v2l[var_arr[c]]
            top = alev
            if blev < top:
                top = blev
            if clev < top:
                top = clev
            if alev == top:
                a0, a1 = low_arr[a], high_arr[a]
            else:
                a0 = a1 = a
            if blev == top:
                b0, b1 = low_arr[b], high_arr[b]
            else:
                b0 = b1 = b
            if clev == top:
                c0, c1 = low_arr[c], high_arr[c]
            else:
                c0 = c1 = c
            node = make(l2v[top], rec(a0, b0, c0), rec(a1, b1, c1))
            table[key] = node
            return node

        def finish() -> None:
            nonlocal rec
            rec = None
            self._fold(OP_ITE, table, hits, misses, ucounts)

        return rec, finish

    def _make_ite_stack(self, table: Dict):
        """Explicit-stack twin of :meth:`_make_ite_rec` (deep managers)."""
        apply_and = self.apply_and
        apply_or = self.apply_or
        apply_not = self.apply_not
        top_cofactors = self._top_cofactors

        def visit(args):
            a, b, c = args
            if a == 1:
                return b
            if a == 0:
                return c
            if b == a:
                b = 1
            if c == a:
                c = 0
            if b == c:
                return b
            if b == 1:
                if c == 0:
                    return a
                return apply_or(a, c)
            if c == 0:
                return apply_and(a, b)
            if b == 0:
                return apply_and(apply_not(a), c)
            if c == 1:
                return apply_or(apply_not(a), b)
            return ((((a << _KEY_BITS) | b) << _KEY_BITS) | c, *top_cofactors(a, b, c))

        make, ucounts = self._interner()
        return self._stack_apply(OP_ITE, table, visit, make, ucounts)

    def apply_restrict(self, f: int, var: int, value: bool) -> int:
        """Cofactor ``f`` with respect to literal ``var = value``."""
        self._check_var(var)
        value = bool(value)
        if f < 2:
            return f
        table = self._tables[OP_RESTRICT]
        value_bit = 1 if value else 0
        node = table.get((f << (_KEY_BITS + 1)) | (var << 1) | value_bit)
        if node is not None:
            self._op_hits[OP_RESTRICT] += 1
            return node
        worker = self._worker(self._make_restrict_rec, self._make_restrict_stack, var, value, table)
        return self._apply_once(worker, f)

    def _make_restrict_rec(self, var: int, value: bool, table: Dict):
        """Recursive cofactor worker factory for one ``var = value`` literal
        (``(rec, finish)`` contract of :meth:`_make_binary_rec`)."""
        target_level = self._var_to_level[var]
        var_arr = self._var
        low_arr = self._low
        high_arr = self._high
        v2l = self._var_to_level
        table_get = table.get
        make, ucounts = self._interner()
        value_bit = 1 if value else 0
        key_shift = _KEY_BITS + 1
        key_tail = (var << 1) | value_bit
        hits = 0
        misses = 0

        def rec(a: int) -> int:
            nonlocal hits, misses
            if a < 2:
                return a
            level = v2l[var_arr[a]]
            if level > target_level:
                # Variable does not appear in this subgraph.
                return a
            if level == target_level:
                # Levels identify variables uniquely, so this is the target.
                return high_arr[a] if value else low_arr[a]
            key = (a << key_shift) | key_tail
            node = table_get(key)
            if node is not None:
                hits += 1
                return node
            misses += 1
            node = make(var_arr[a], rec(low_arr[a]), rec(high_arr[a]))
            table[key] = node
            return node

        def finish() -> None:
            nonlocal rec
            rec = None
            self._fold(OP_RESTRICT, table, hits, misses, ucounts)

        return rec, finish

    def _make_restrict_stack(self, var: int, value: bool, table: Dict):
        """Explicit-stack twin of :meth:`_make_restrict_rec` (deep managers)."""
        target_level = self._var_to_level[var]
        var_arr = self._var
        low_arr = self._low
        high_arr = self._high
        v2l = self._var_to_level
        key_shift = _KEY_BITS + 1
        key_tail = (var << 1) | (1 if value else 0)

        def visit(args):
            a = args[0]
            if a < 2:
                return a
            level = v2l[var_arr[a]]
            if level > target_level:
                # Variable does not appear in this subgraph.
                return a
            if level == target_level:
                return high_arr[a] if value else low_arr[a]
            return (a << key_shift) | key_tail, var_arr[a], (low_arr[a],), (high_arr[a],)

        make, ucounts = self._interner()
        return self._stack_apply(OP_RESTRICT, table, visit, make, ucounts)

    def apply_restrict_cube(self, f: int, assignments: Sequence[Tuple[int, bool]]) -> int:
        """Cofactor with respect to a cube given as ``(var, value)`` pairs."""
        node = f
        for var, value in assignments:
            node = self.apply_restrict(node, var, value)
        return node

    def apply_exists(self, f: int, variables: Sequence[int]) -> int:
        """Existential quantification of ``variables`` from ``f``."""
        if not variables:
            return f
        var_set = frozenset(variables)
        for var in var_set:
            self._check_var(var)
        var_arr = self._var
        low_arr = self._low
        high_arr = self._high
        apply_or = self.apply_or
        make, ucounts = self._interner()

        def visit(args):
            a = args[0]
            if a < 2:
                return a
            return (a, var_set), var_arr[a], (low_arr[a],), (high_arr[a],)

        def combine(var: int, low: int, high: int) -> int:
            return apply_or(low, high) if var in var_set else make(var, low, high)

        worker = self._stack_apply(OP_EXISTS, self._tables[OP_EXISTS], visit,
                                   make, ucounts, combine)
        return self._apply_once(worker, f)

    def apply_compose(self, f: int, var: int, g: int) -> int:
        """Substitute function ``g`` for variable ``var`` inside ``f``.

        Runs on the explicit-stack driver at every depth: the walk over
        ``f`` allocates no Python stack frames, and the per-node ITE
        recombination dispatches through :meth:`apply_ite`, which picks its
        own deep-manager-safe implementation.
        """
        self._check_var(var)
        var_arr = self._var
        low_arr = self._low
        high_arr = self._high
        v2l = self._var_to_level
        target_level = v2l[var]
        apply_ite = self.apply_ite
        make, ucounts = self._interner()

        def visit(args):
            a = args[0]
            if a < 2:
                return a
            avar = var_arr[a]
            if avar == var:
                return apply_ite(g, high_arr[a], low_arr[a])
            if v2l[avar] > target_level:
                # var cannot appear below this point.
                return a
            return (a, var, g), avar, (low_arr[a],), (high_arr[a],)

        def combine(avar: int, low: int, high: int) -> int:
            return apply_ite(make(avar, FALSE, TRUE), high, low)

        worker = self._stack_apply(OP_COMPOSE, self._tables[OP_COMPOSE], visit,
                                   make, ucounts, combine)
        return self._apply_once(worker, f)

    # ------------------------------------------------------------------ #
    # fused multi-operand kernels
    # ------------------------------------------------------------------ #
    def apply_full_add(self, f: int, g: int, h: int) -> Tuple[int, int]:
        """One full-adder step on three node ids: ``(sum, carry)``.

        ``sum = f ^ g ^ h`` and ``carry = fg + fh + gh`` are the
        ``Sum(A, B, C)`` and ``Car(A, B, C)`` of the paper's Table II.  One
        three-operand traversal builds both: per triple one sort, one
        computed-table lookup and one cofactor step, then one ``make`` for
        the sum and one for the carry, instead of the six 2-operand applies
        of the naive composition.  Both functions are fully symmetric, so
        the operands are sorted to canonicalise the key.  The table sits in
        the ``maj3`` slot and counts one hit or miss per triple lookup.
        """
        if f > g:
            f, g = g, f
        if g > h:
            g, h = h, g
        if f > g:
            f, g = g, f
        table = self._tables[OP_MAJ3]
        # Degenerate triples are never stored, so they always miss here.
        packed = table.get((((f << _KEY_BITS) | g) << _KEY_BITS) | h)
        if packed is None:
            worker = self._worker(self._make_full_add_rec, self._make_full_add_stack, table)
            packed = self._apply_once(worker, f, g, h)
        else:
            self._op_hits[OP_MAJ3] += 1
        return packed >> _KEY_BITS, packed & _KEY_MASK

    def apply_maj3(self, f: int, g: int, h: int) -> int:
        """Majority ``fg + fh + gh``: the carry of :meth:`apply_full_add`."""
        return self.apply_full_add(f, g, h)[1]

    def apply_xor3(self, f: int, g: int, h: int) -> int:
        """Three-way exclusive-or ``f ^ g ^ h``: the sum of
        :meth:`apply_full_add`."""
        return self.apply_full_add(f, g, h)[0]

    def _make_full_add_rec(self, table: Dict):
        """Recursive full-adder worker factory (``(rec, finish)`` contract of
        :meth:`_make_binary_rec`).

        ``rec(a, b, c)`` returns the pair packed into one int, ``(sum <<
        _KEY_BITS) | carry``, which is also the table entry.  After sorting,
        ``a == b`` gives ``(c, a)`` and ``b == c`` gives ``(a, b)``; the
        terminal cases (``a = 0``: ``(b ^ c, b & c)``, ``a = 1``: ``(not
        (b ^ c), b | c)``) delegate to *shared* nested AND / OR / XOR / NOT
        workers created once per transaction, so a carry chain full of
        terminal cofactors does not rebuild a binary-apply closure per
        delegation.
        """
        var_arr = self._var
        low_arr = self._low
        high_arr = self._high
        v2l = self._var_to_level
        l2v = self._level_to_var
        table_get = table.get
        apply_and, and_finish = self._make_binary_rec(OP_AND, self._tables[OP_AND])
        apply_or, or_finish = self._make_binary_rec(OP_OR, self._tables[OP_OR])
        apply_xor, xor_finish = self._make_binary_rec(OP_XOR, self._tables[OP_XOR])
        apply_not, not_finish = self._make_not_rec(self._tables[OP_NOT])
        make, ucounts = self._interner()
        hits = 0
        misses = 0

        def rec(a: int, b: int, c: int) -> int:
            nonlocal hits, misses
            if a > b:
                a, b = b, a
            if b > c:
                b, c = c, b
            if a > b:
                a, b = b, a
            if a == b:
                return (c << _KEY_BITS) | a
            if b == c:
                return (a << _KEY_BITS) | b
            if a == 0:
                return (apply_xor(b, c) << _KEY_BITS) | apply_and(b, c)
            if a == 1:
                return (apply_not(apply_xor(b, c)) << _KEY_BITS) | apply_or(b, c)
            key = (((a << _KEY_BITS) | b) << _KEY_BITS) | c
            packed = table_get(key)
            if packed is not None:
                hits += 1
                return packed
            misses += 1
            alev = v2l[var_arr[a]]
            blev = v2l[var_arr[b]]
            clev = v2l[var_arr[c]]
            top = alev
            if blev < top:
                top = blev
            if clev < top:
                top = clev
            if alev == top:
                a0, a1 = low_arr[a], high_arr[a]
            else:
                a0 = a1 = a
            if blev == top:
                b0, b1 = low_arr[b], high_arr[b]
            else:
                b0 = b1 = b
            if clev == top:
                c0, c1 = low_arr[c], high_arr[c]
            else:
                c0 = c1 = c
            low = rec(a0, b0, c0)
            high = rec(a1, b1, c1)
            var = l2v[top]
            packed = ((make(var, low >> _KEY_BITS, high >> _KEY_BITS) << _KEY_BITS)
                      | make(var, low & _KEY_MASK, high & _KEY_MASK))
            table[key] = packed
            return packed

        def finish() -> None:
            nonlocal rec
            rec = None
            and_finish()
            or_finish()
            xor_finish()
            not_finish()
            self._fold(OP_MAJ3, table, hits, misses, ucounts)

        return rec, finish

    def _make_full_add_stack(self, table: Dict):
        """Explicit-stack twin of :meth:`_make_full_add_rec` (deep managers),
        with the same nested AND / OR / XOR / NOT workers for the terminal
        cases; ``combine`` unpacks both halves, makes both nodes and repacks
        them."""
        apply_and, and_finish = self._make_binary_stack(OP_AND, self._tables[OP_AND])
        apply_or, or_finish = self._make_binary_stack(OP_OR, self._tables[OP_OR])
        apply_xor, xor_finish = self._make_binary_stack(OP_XOR, self._tables[OP_XOR])
        apply_not, not_finish = self._make_not_stack(self._tables[OP_NOT])
        top_cofactors = self._top_cofactors
        make, ucounts = self._interner()

        def visit(args):
            a, b, c = args
            if a > b:
                a, b = b, a
            if b > c:
                b, c = c, b
            if a > b:
                a, b = b, a
            if a == b:
                return (c << _KEY_BITS) | a
            if b == c:
                return (a << _KEY_BITS) | b
            if a == 0:
                return (apply_xor(b, c) << _KEY_BITS) | apply_and(b, c)
            if a == 1:
                return (apply_not(apply_xor(b, c)) << _KEY_BITS) | apply_or(b, c)
            return ((((a << _KEY_BITS) | b) << _KEY_BITS) | c, *top_cofactors(a, b, c))

        def combine(var: int, low: int, high: int) -> int:
            return ((make(var, low >> _KEY_BITS, high >> _KEY_BITS) << _KEY_BITS)
                    | make(var, low & _KEY_MASK, high & _KEY_MASK))

        return self._stack_apply(OP_MAJ3, table, visit, make, ucounts, combine,
                                 nested=(and_finish, or_finish, xor_finish, not_finish))

    # ------------------------------------------------------------------ #
    # controlled permutation kernel (X, CX, CCX, SWAP, CSWAP)
    # ------------------------------------------------------------------ #
    def apply_controlled_flip(self, f: int, c: int, var: int) -> int:
        """``ite(c, f[x_var := not x_var], f)``: the controlled-X action of
        Table II (X with ``c = TRUE``, CX and CCX with ``c`` the control
        cube) in one traversal of ``(f, c)``, instead of a flip sweep over
        all of ``f`` followed by an ITE sweep.  ``c`` may be any function,
        the target included."""
        self._check_var(var)
        worker = self._worker(self._make_controlled_rec, self._make_controlled_stack,
                              var, None, self._tables[OP_ITE])
        return self._apply_once(worker, f, c)

    def apply_controlled_swap(self, f: int, c: int, var_a: int, var_b: int) -> int:
        """``ite(c, swap_vars(f, var_a, var_b), f)``: the SWAP (``c =
        TRUE``) and Fredkin (CSWAP) action in one traversal of ``(f, c)``;
        see :meth:`apply_controlled_flip`."""
        self._check_var(var_a)
        self._check_var(var_b)
        if var_a == var_b:
            return f
        if self._var_to_level[var_a] > self._var_to_level[var_b]:
            var_a, var_b = var_b, var_a
        worker = self._worker(self._make_controlled_rec, self._make_controlled_stack,
                              var_a, var_b, self._tables[OP_ITE])
        return self._apply_once(worker, f, c)

    def apply_flip(self, f: int, var: int) -> int:
        """``f`` with ``x_var`` negated: ``f[x_var := not x_var]``, the
        Boolean action of the X gate.  It is
        ``apply_controlled_flip(f, TRUE, var)``, so it memoises and counts
        as ``ite``."""
        return self.apply_controlled_flip(f, TRUE, var)

    def apply_swap_vars(self, f: int, var_a: int, var_b: int) -> int:
        """The function with the roles of ``var_a`` and ``var_b`` exchanged:
        ``g(..., x_a = u, x_b = v, ...) = f(..., x_a = v, x_b = u, ...)``,
        the Boolean action of the SWAP gate.  It is
        ``apply_controlled_swap(f, TRUE, var_a, var_b)``, so it memoises and
        counts as ``ite``."""
        return self.apply_controlled_swap(f, TRUE, var_a, var_b)

    def _controlled_leaf(self, var_a: int, var_b: Optional[int], make, stack: bool):
        """The action-specific step of the controlled kernel, shared by its
        recursive and explicit-stack workers.

        The action flips ``var_a`` when ``var_b`` is ``None``, else swaps
        ``var_a`` with ``var_b`` (``var_a`` the upper of the two).  Returns
        ``(leaf, finish)``: ``leaf`` recombines cofactors through the nested
        ITE worker (its explicit-stack form when ``stack``), and ``finish``
        closes that worker.

        * Flip: ``leaf(f, c, clev)`` where ``f``'s top variable is the
          target and ``c`` is not ``TRUE`` and lies at or below it:
          ``mk(t, ite(c|t=0, f1, f0), ite(c|t=1, f0, f1))``.  (Under
          ``TRUE`` the workers exchange the children, ``mk(t, f1, f0)``,
          before any table lookup, as the step is cheaper than its memo.)
        * Swap: ``leaf(p, q, d, side, plev, qlev, dlev)`` where ``p``, ``q``
          are ``f|a=0`` and ``f|a=1``, ``d`` is ``c|a=side`` and all three
          lie at or below ``var_b``'s level: ``g|a=side`` from their
          top-level ``b``-cofactors, ``mk(b, p|b=0, ite(d|b=1, q|b=0,
          p|b=1))`` for side 0 and ``mk(b, ite(d|b=0, p|b=1, q|b=0),
          q|b=1)`` for side 1.
        """
        low_arr = self._low
        high_arr = self._high
        ite, ite_finish = (self._make_ite_stack if stack else self._make_ite_rec)(
            self._tables[OP_ITE])
        level_a = self._var_to_level[var_a]
        if var_b is None:

            def leaf(f: int, c: int, clev: int) -> int:
                f0, f1 = low_arr[f], high_arr[f]
                if clev == level_a:
                    return make(var_a, ite(low_arr[c], f1, f0), ite(high_arr[c], f0, f1))
                return make(var_a, ite(c, f1, f0), ite(c, f0, f1))

            return leaf, ite_finish

        level_b = self._var_to_level[var_b]

        def leaf(p: int, q: int, d: int, side: int, plev: int, qlev: int, dlev: int) -> int:
            p0, p1 = (low_arr[p], high_arr[p]) if plev == level_b else (p, p)
            q0, q1 = (low_arr[q], high_arr[q]) if qlev == level_b else (q, q)
            if side:
                d0 = low_arr[d] if dlev == level_b else d
                return make(var_b, ite(d0, p1, q0), q1)
            d1 = high_arr[d] if dlev == level_b else d
            return make(var_b, p0, ite(d1, q0, p1))

        return leaf, ite_finish

    def _make_controlled_rec(self, var_a: int, var_b: Optional[int], table: Dict):
        """Recursive worker factory of the controlled flip / swap kernel
        (``(rec, finish)`` contract of :meth:`_make_binary_rec`; ``rec(f,
        c)`` is ``ite(c, act(f), f)``, the action as in
        :meth:`_controlled_leaf`).  A ``TRUE`` condition is the plain
        action: a terminal ``c`` reads as lying below every level, and a
        flip under ``TRUE`` exchanges the children at the target.

        Above ``var_a``'s level ``rec`` splits on the top variable of ``(f,
        c)``.  At or below it a flip ends in the leaf; a swap builds ``mk(a,
        g|a=0, g|a=1)``, each half from ``side(f|a=0, f|a=1, c|a=side,
        side)``, which splits on the top variable of its three operands
        down to ``var_b``'s level and ends in the leaf there, so the band
        between the two levels is walked once per half instead of by four
        restricts on ``x_b`` and the ITEs that recombine them (the result
        depends on ``var_a`` only through its operands, so ``side``'s key
        omits it).  Entries live in the ITE table under tuple keys that
        no packed-int ITE key can equal: ``(f, c, var_a, var_b)`` (``var_b =
        -1`` for a flip) and ``(p, q, d, var_b, side)``; the traffic counts
        as ``ite``.
        """
        var_arr = self._var
        low_arr = self._low
        high_arr = self._high
        v2l = self._var_to_level
        l2v = self._level_to_var
        bottom = len(l2v)
        upper = v2l[var_a]
        lower = upper if var_b is None else v2l[var_b]
        key_b = -1 if var_b is None else var_b
        # The level where a flip under TRUE exchanges children (none for a swap).
        flip_level = upper if var_b is None else -1
        table_get = table.get
        make, ucounts = self._interner()
        leaf, leaf_finish = self._controlled_leaf(var_a, var_b, make, False)
        hits = 0
        misses = 0

        def side(p: int, q: int, d: int, s: int) -> int:
            nonlocal hits, misses
            if d == 0:
                return q if s else p
            key = (p, q, d, var_b, s)
            node = table_get(key)
            if node is not None:
                hits += 1
                return node
            misses += 1
            plev = v2l[var_arr[p]] if p > 1 else bottom
            qlev = v2l[var_arr[q]] if q > 1 else bottom
            dlev = v2l[var_arr[d]] if d > 1 else bottom
            top = plev
            if qlev < top:
                top = qlev
            if dlev < top:
                top = dlev
            if top < lower:
                if plev == top:
                    p0, p1 = low_arr[p], high_arr[p]
                else:
                    p0 = p1 = p
                if qlev == top:
                    q0, q1 = low_arr[q], high_arr[q]
                else:
                    q0 = q1 = q
                if dlev == top:
                    d0, d1 = low_arr[d], high_arr[d]
                else:
                    d0 = d1 = d
                node = make(l2v[top], side(p0, q0, d0, s), side(p1, q1, d1, s))
            else:
                node = leaf(p, q, d, s, plev, qlev, dlev)
            table[key] = node
            return node

        def rec(f: int, c: int) -> int:
            nonlocal hits, misses
            if c == 0 or f < 2:
                return f
            fvar = var_arr[f]
            flev = v2l[fvar]
            if flev > lower:
                # The action leaves f unchanged.
                return f
            if c == 1 and flev == flip_level:
                return make(var_a, high_arr[f], low_arr[f])
            key = (f, c, var_a, key_b)
            node = table_get(key)
            if node is not None:
                hits += 1
                return node
            misses += 1
            clev = v2l[var_arr[c]] if c > 1 else bottom
            if flev < upper or clev < upper:
                if flev < clev:
                    node = make(fvar, rec(low_arr[f], c), rec(high_arr[f], c))
                elif flev == clev:
                    node = make(fvar, rec(low_arr[f], low_arr[c]), rec(high_arr[f], high_arr[c]))
                else:
                    node = make(var_arr[c], rec(f, low_arr[c]), rec(f, high_arr[c]))
            elif var_b is None:
                node = leaf(f, c, clev)
            else:
                f0, f1 = (low_arr[f], high_arr[f]) if flev == upper else (f, f)
                c0, c1 = (low_arr[c], high_arr[c]) if clev == upper else (c, c)
                node = make(var_a, side(f0, f1, c0, 0), side(f0, f1, c1, 1))
            table[key] = node
            return node

        def finish() -> None:
            nonlocal rec, side
            rec = side = None
            leaf_finish()
            self._fold(OP_ITE, table, hits, misses, ucounts)

        return rec, finish

    def _make_controlled_stack(self, var_a: int, var_b: Optional[int], table: Dict):
        """Explicit-stack twin of :meth:`_make_controlled_rec` (deep
        managers): one visit for both phases, told apart by the operand
        count, with the leaf of :meth:`_controlled_leaf` as a thunk.  The
        thunks are :func:`functools.partial` objects: a lambda would turn
        every operand it names into a cell that each visit allocates."""
        var_arr = self._var
        low_arr = self._low
        high_arr = self._high
        v2l = self._var_to_level
        l2v = self._level_to_var
        bottom = len(l2v)
        upper = v2l[var_a]
        lower = upper if var_b is None else v2l[var_b]
        key_b = -1 if var_b is None else var_b
        # The level where a flip under TRUE exchanges children (none for a swap).
        flip_level = upper if var_b is None else -1
        make, ucounts = self._interner()
        leaf, leaf_finish = self._controlled_leaf(var_a, var_b, make, True)

        def visit(args):
            if len(args) == 4:
                p, q, d, s = args
                if d == 0:
                    return q if s else p
                key = (p, q, d, var_b, s)
                plev = v2l[var_arr[p]] if p > 1 else bottom
                qlev = v2l[var_arr[q]] if q > 1 else bottom
                dlev = v2l[var_arr[d]] if d > 1 else bottom
                top = plev
                if qlev < top:
                    top = qlev
                if dlev < top:
                    top = dlev
                if top < lower:
                    p0, p1 = (low_arr[p], high_arr[p]) if plev == top else (p, p)
                    q0, q1 = (low_arr[q], high_arr[q]) if qlev == top else (q, q)
                    d0, d1 = (low_arr[d], high_arr[d]) if dlev == top else (d, d)
                    return key, l2v[top], (p0, q0, d0, s), (p1, q1, d1, s)
                return key, partial(leaf, p, q, d, s, plev, qlev, dlev)
            f, c = args
            if c == 0 or f < 2:
                return f
            fvar = var_arr[f]
            flev = v2l[fvar]
            if flev > lower:
                # The action leaves f unchanged.
                return f
            if c == 1:
                if flev == flip_level:
                    return make(var_a, high_arr[f], low_arr[f])
                clev = bottom
            else:
                clev = v2l[var_arr[c]]
            key = (f, c, var_a, key_b)
            if flev < upper or clev < upper:
                if flev < clev:
                    return key, fvar, (low_arr[f], c), (high_arr[f], c)
                if flev == clev:
                    return key, fvar, (low_arr[f], low_arr[c]), (high_arr[f], high_arr[c])
                return key, var_arr[c], (f, low_arr[c]), (f, high_arr[c])
            if var_b is None:
                return key, partial(leaf, f, c, clev)
            f0, f1 = (low_arr[f], high_arr[f]) if flev == upper else (f, f)
            c0, c1 = (low_arr[c], high_arr[c]) if clev == upper else (c, c)
            return key, var_a, (f0, f1, c0, 0), (f0, f1, c1, 1)

        return self._stack_apply(OP_ITE, table, visit, make, ucounts, nested=(leaf_finish,))

    # ------------------------------------------------------------------ #
    # butterfly adder kernel (H, Rx(pi/2), Ry(pi/2))
    # ------------------------------------------------------------------ #
    def _butterfly_leaf(self, var: int, make, stack: bool):
        """The target-level half of the butterfly kernel, shared by its
        recursive and explicit-stack workers.

        Returns ``(leaf, finishes)``: ``leaf(f, g, c, mode, flev, glev,
        clev)``, for operands at or below ``var``'s level, cofactors them on
        ``var``, runs one full-adder step per side of ``var`` (a subtracted
        side as ``FA(a, not b, c)`` through the nested NOT worker) and
        returns the packed ``(mk(var, sum0, sum1), mk(var, carry0,
        carry1))``; ``finishes`` closes the nested full-adder and NOT
        workers.  ``stack`` picks their explicit-stack forms.
        """
        tables = self._tables
        low_arr = self._low
        high_arr = self._high
        level = self._var_to_level[var]
        full_add, add_finish = (self._make_full_add_stack if stack
                                else self._make_full_add_rec)(tables[OP_MAJ3])
        negate, not_finish = (self._make_not_stack if stack else self._make_not_rec)(tables[OP_NOT])

        def leaf(f: int, g: int, c: int, mode: int, flev: int, glev: int, clev: int) -> int:
            f0, f1 = (low_arr[f], high_arr[f]) if flev == level else (f, f)
            g0, g1 = (low_arr[g], high_arr[g]) if glev == level else (g, g)
            c0, c1 = (low_arr[c], high_arr[c]) if clev == level else (c, c)
            if mode & BUTTERFLY_CROSS:
                b0, b1 = g1, g0
            else:
                f1 = f0
                b0 = b1 = g1
            if mode & BUTTERFLY_SUB_LOW:
                b0 = negate(b0)
            if mode & BUTTERFLY_SUB_HIGH:
                b1 = negate(b1)
            low = full_add(f0, b0, c0)
            high = full_add(f1, b1, c1)
            return ((make(var, low >> _KEY_BITS, high >> _KEY_BITS) << _KEY_BITS)
                    | make(var, low & _KEY_MASK, high & _KEY_MASK))

        return leaf, (add_finish, not_finish)

    def _make_butterfly_rec(self, var: int, table: Dict):
        """Recursive worker factory of the butterfly adder step
        (``(rec, finish)`` contract of :meth:`_make_binary_rec`; ``rec(f,
        g, c, mode)`` returns the packed ``(sum << _KEY_BITS) | carry`` of
        :meth:`butterfly_add_many`).

        Above ``var``'s level ``rec`` splits ``(f, g, c)`` on their top
        variable and builds both outputs from the halves; at or below it
        the operands end in :meth:`_butterfly_leaf`.  Entries live in the
        ``maj3`` table under ``(f, g, c, var, mode)`` tuple keys, which no
        packed full-adder key can equal, and count as ``maj3`` traffic.
        """
        var_arr = self._var
        low_arr = self._low
        high_arr = self._high
        v2l = self._var_to_level
        l2v = self._level_to_var
        bottom = len(l2v)
        level = v2l[var]
        table_get = table.get
        make, ucounts = self._interner()
        leaf, nested = self._butterfly_leaf(var, make, False)
        hits = 0
        misses = 0

        def rec(f: int, g: int, c: int, mode: int) -> int:
            nonlocal hits, misses
            key = (f, g, c, var, mode)
            packed = table_get(key)
            if packed is not None:
                hits += 1
                return packed
            misses += 1
            flev = v2l[var_arr[f]] if f > 1 else bottom
            glev = v2l[var_arr[g]] if g > 1 else bottom
            clev = v2l[var_arr[c]] if c > 1 else bottom
            top = flev
            if glev < top:
                top = glev
            if clev < top:
                top = clev
            if top < level:
                if flev == top:
                    f0, f1 = low_arr[f], high_arr[f]
                else:
                    f0 = f1 = f
                if glev == top:
                    g0, g1 = low_arr[g], high_arr[g]
                else:
                    g0 = g1 = g
                if clev == top:
                    c0, c1 = low_arr[c], high_arr[c]
                else:
                    c0 = c1 = c
                low = rec(f0, g0, c0, mode)
                high = rec(f1, g1, c1, mode)
                top_var = l2v[top]
                packed = ((make(top_var, low >> _KEY_BITS, high >> _KEY_BITS) << _KEY_BITS)
                          | make(top_var, low & _KEY_MASK, high & _KEY_MASK))
            else:
                packed = leaf(f, g, c, mode, flev, glev, clev)
            table[key] = packed
            return packed

        def finish() -> None:
            nonlocal rec
            rec = None
            for nested_finish in nested:
                nested_finish()
            self._fold(OP_MAJ3, table, hits, misses, ucounts)

        return rec, finish

    def _make_butterfly_stack(self, var: int, table: Dict):
        """Explicit-stack twin of :meth:`_make_butterfly_rec` (deep
        managers), with :meth:`_butterfly_leaf` as a thunk."""
        var_arr = self._var
        low_arr = self._low
        high_arr = self._high
        v2l = self._var_to_level
        l2v = self._level_to_var
        bottom = len(l2v)
        level = v2l[var]
        make, ucounts = self._interner()
        leaf, nested = self._butterfly_leaf(var, make, True)

        def visit(args):
            f, g, c, mode = args
            key = (f, g, c, var, mode)
            flev = v2l[var_arr[f]] if f > 1 else bottom
            glev = v2l[var_arr[g]] if g > 1 else bottom
            clev = v2l[var_arr[c]] if c > 1 else bottom
            top = min(flev, glev, clev)
            if top < level:
                f0, f1 = (low_arr[f], high_arr[f]) if flev == top else (f, f)
                g0, g1 = (low_arr[g], high_arr[g]) if glev == top else (g, g)
                c0, c1 = (low_arr[c], high_arr[c]) if clev == top else (c, c)
                return key, l2v[top], (f0, g0, c0, mode), (f1, g1, c1, mode)
            return key, partial(leaf, f, g, c, mode, flev, glev, clev)

        def combine(top_var: int, low: int, high: int) -> int:
            return ((make(top_var, low >> _KEY_BITS, high >> _KEY_BITS) << _KEY_BITS)
                    | make(top_var, low & _KEY_MASK, high & _KEY_MASK))

        return self._stack_apply(OP_MAJ3, table, visit, make, ucounts, combine, nested=nested)

    # ------------------------------------------------------------------ #
    # batched application
    # ------------------------------------------------------------------ #
    # These are the gate rules' slice sweeps: one operation over all 4r
    # slices of a state.  They work on raw node ids, so the caller keeps the
    # inputs reachable from live handles and runs no garbage collection
    # before anchoring the results, as with any raw-node call.
    def and_many(self, pairs: Iterable[Tuple[int, int]]) -> List[int]:
        """Conjunction of every ``(f, g)`` pair, in one batch transaction."""
        return self._run_batch(starmap, pairs, self._make_binary_rec, self._make_binary_stack,
                               OP_AND, self._tables[OP_AND])

    def or_many(self, pairs: Iterable[Tuple[int, int]]) -> List[int]:
        """Disjunction of every ``(f, g)`` pair, in one batch transaction."""
        return self._run_batch(starmap, pairs, self._make_binary_rec, self._make_binary_stack,
                               OP_OR, self._tables[OP_OR])

    def xor_many(self, pairs: Iterable[Tuple[int, int]]) -> List[int]:
        """Exclusive-or of every ``(f, g)`` pair, in one batch transaction."""
        return self._run_batch(starmap, pairs, self._make_binary_rec, self._make_binary_stack,
                               OP_XOR, self._tables[OP_XOR])

    def not_many(self, nodes: Iterable[int]) -> List[int]:
        """Negation of every node id, in one batch transaction."""
        return self._run_batch(map, nodes, self._make_not_rec, self._make_not_stack,
                               self._tables[OP_NOT])

    def ite_many(self, triples: Iterable[Tuple[int, int, int]]) -> List[int]:
        """If-then-else of every ``(f, g, h)`` triple, in one batch transaction."""
        return self._run_batch(starmap, triples, self._make_ite_rec, self._make_ite_stack,
                               self._tables[OP_ITE])

    def full_add_many(self, triples: Iterable[Tuple[int, int, int]]) -> List[Tuple[int, int]]:
        """Full-adder ``(sum, carry)`` of every triple, in one batch
        transaction (one bit position of the gate rules' ripple adders)."""
        packed = self._run_batch(starmap, triples, self._make_full_add_rec,
                                 self._make_full_add_stack, self._tables[OP_MAJ3])
        return [(pair >> _KEY_BITS, pair & _KEY_MASK) for pair in packed]

    def restrict_many(self, nodes: Iterable[int], var: int, value: bool) -> List[int]:
        """Cofactor of every node id with respect to ``var = value``, in one
        batch transaction (the 4r-slice cofactor sweep of a gate update)."""
        self._check_var(var)
        return self._run_batch(map, nodes, self._make_restrict_rec, self._make_restrict_stack,
                               var, bool(value), self._tables[OP_RESTRICT])

    def controlled_flip_many(self, nodes: Iterable[int], c: int, var: int) -> List[int]:
        """``ite(c, f[x_var := not x_var], f)`` of every node id, in one
        batch transaction (the 4r-slice sweep of X, CX and CCX)."""
        self._check_var(var)
        return self._run_batch(starmap, ((f, c) for f in nodes), self._make_controlled_rec,
                               self._make_controlled_stack, var, None, self._tables[OP_ITE])

    def controlled_swap_many(self, nodes: Iterable[int], c: int, var_a: int,
                             var_b: int) -> List[int]:
        """``ite(c, swap_vars(f, var_a, var_b), f)`` of every node id, in
        one batch transaction (the 4r-slice sweep of SWAP and CSWAP)."""
        self._check_var(var_a)
        self._check_var(var_b)
        if var_a == var_b:
            return list(nodes)
        if self._var_to_level[var_a] > self._var_to_level[var_b]:
            var_a, var_b = var_b, var_a
        return self._run_batch(starmap, ((f, c) for f in nodes), self._make_controlled_rec,
                               self._make_controlled_stack, var_a, var_b, self._tables[OP_ITE])

    def butterfly_add_many(self, items: Iterable[Tuple[int, int, int, int]],
                           var: int) -> List[Tuple[int, int]]:
        """One butterfly adder step per ``(f, g, c, mode)`` item on target
        ``x_var``, in one batch transaction: the ``(sum, carry)`` whose
        cofactor on each side ``s`` of ``x_var`` is the full-adder step of
        Table II on ``(f|s', g|s'' or its complement, c|s)``.

        ``mode`` is an OR of the ``BUTTERFLY_*`` bits: without
        ``BUTTERFLY_CROSS`` both sides take ``(f|0, g|1)`` (H, Ry(pi/2)),
        with it side ``s`` takes ``(f|s, g|1-s)`` (Rx(pi/2));
        ``BUTTERFLY_SUB_LOW`` / ``BUTTERFLY_SUB_HIGH`` complement ``g``'s
        cofactor on that side (a subtraction, with the carry seed ``c``
        supplying the +1).  One bit position of the superposing gates'
        ripple adders: one walk of ``(f, g, c)`` splits on their top
        variable above ``x_var`` and runs the fused full-adder worker once
        per side at ``x_var``, instead of cofactor, XOR / NOT and flip
        sweeps followed by a full-adder sweep.  The traffic counts as
        ``maj3``.
        """
        self._check_var(var)
        packed = self._run_batch(starmap, items, self._make_butterfly_rec,
                                 self._make_butterfly_stack, var, self._tables[OP_MAJ3])
        return [(pair >> _KEY_BITS, pair & _KEY_MASK) for pair in packed]

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def evaluate(self, f: int, assignment: Dict[int, bool]) -> bool:
        """Evaluate ``f`` under a (total for its support) variable assignment."""
        node = f
        while not self.is_terminal(node):
            var = self._var[node]
            if var not in assignment:
                raise KeyError(f"assignment missing variable {var}")
            node = self._high[node] if assignment[var] else self._low[node]
        return node == TRUE

    def support(self, f: int) -> List[int]:
        """Sorted list of variable indices on which ``f`` depends."""
        var_arr = self._var
        low_arr = self._low
        high_arr = self._high
        seen = set()
        seen_add = seen.add
        variables = set()
        stack = [f]
        while stack:
            node = stack.pop()
            if node < 2 or node in seen:
                continue
            seen_add(node)
            variables.add(var_arr[node])
            stack.append(low_arr[node])
            stack.append(high_arr[node])
        return sorted(variables)

    def count_nodes(self, roots: Iterable[int]) -> int:
        """Number of distinct nodes (including terminals) reachable from
        ``roots``.

        Results are memoised and generation-invalidated alongside the
        computed tables (garbage collection, reorders and adjacent swaps
        all clear them): reachable sets are immutable while a node is
        alive, so a repeated query is O(1).  Single roots are kept per
        root; multi-root queries keep one slot holding the last root tuple
        and its count, so the per-gate peak count, the node-budget check
        and the final statistics of a 4r-slice state share one walk, and a
        long-lived manager never accumulates entries.  Visited marks use a
        bytearray indexed by node id, which is much cheaper than hashing
        every id into a set; a node is marked when it is pushed, so it is
        pushed once, and the count is ``bytearray.count(1)`` at the end.
        """
        stack = list(roots)
        single_root = stack[0] if len(stack) == 1 else None
        if single_root is not None:
            cached = self._size_cache.get(single_root)
            if cached is not None:
                return cached
        else:
            key = tuple(stack)
            last = self._last_multi_count
            if last is not None and last[0] == key:
                return last[1]
        low_arr = self._low
        high_arr = self._high
        visited = bytearray(len(self._var))
        # A node is marked when it is pushed, so each is pushed once.  The
        # terminals start marked: a non-constant function reaches both.
        visited[FALSE] = visited[TRUE] = 1
        pending = []
        push = pending.append
        for node in stack:
            if not visited[node]:
                visited[node] = 1
                push(node)
        if pending:
            pop = pending.pop
            while pending:
                node = pop()
                child = low_arr[node]
                if not visited[child]:
                    visited[child] = 1
                    push(child)
                child = high_arr[node]
                if not visited[child]:
                    visited[child] = 1
                    push(child)
            count = visited.count(1)
        else:
            count = len(set(stack))
        if single_root is not None:
            self._size_cache[single_root] = count
        else:
            self._last_multi_count = (key, count)
        return count

    def satcount(self, f: int, num_vars: Optional[int] = None) -> int:
        """Number of satisfying assignments of ``f`` over ``num_vars``
        variables (defaults to all variables of the manager).

        Iterative post-order so deep BDDs cannot hit the recursion limit.
        The per-node value is ``(count, level)`` where the count is over the
        variables strictly below the node's level.
        """
        if num_vars is None:
            num_vars = self.num_vars
        var_arr = self._var
        low_arr = self._low
        high_arr = self._high
        v2l = self._var_to_level
        cache: Dict[int, Tuple[int, int]] = {}
        cache_get = cache.get
        tasks: List[Tuple[int, int]] = [(0, f)]
        push = tasks.append
        pop = tasks.pop
        results: List[Tuple[int, int]] = []
        rpush = results.append
        rpop = results.pop
        while tasks:
            kind, node = pop()
            if kind:
                hi_count, hi_level = rpop()
                lo_count, lo_level = rpop()
                level = v2l[var_arr[node]]
                count = ((lo_count << (lo_level - level - 1))
                         + (hi_count << (hi_level - level - 1)))
                entry = (count, level)
                cache[node] = entry
                rpush(entry)
                continue
            if node == FALSE:
                rpush((0, num_vars))
                continue
            if node == TRUE:
                rpush((1, num_vars))
                continue
            entry = cache_get(node)
            if entry is not None:
                rpush(entry)
                continue
            push((1, node))
            push((0, high_arr[node]))
            push((0, low_arr[node]))
        count, level = results[0]
        return count << level

    def iter_satisfying(self, f: int, variables: Sequence[int]):
        """Yield satisfying assignments of ``f`` as dicts over ``variables``.

        Variables in ``variables`` that are not in the support of ``f`` are
        enumerated over both values, so the iteration yields exactly
        ``satcount(f, len(variables))`` assignments.
        """
        order = sorted(variables, key=lambda v: self._var_to_level[v])

        def rec(node: int, position: int, partial: Dict[int, bool]):
            if node == FALSE:
                return
            if position == len(order):
                if node == TRUE:
                    yield dict(partial)
                return
            var = order[position]
            node_var = self._var[node] if not self.is_terminal(node) else None
            if node_var == var:
                for value, child in ((False, self._low[node]), (True, self._high[node])):
                    partial[var] = value
                    yield from rec(child, position + 1, partial)
                del partial[var]
            else:
                for value in (False, True):
                    partial[var] = value
                    yield from rec(node, position + 1, partial)
                del partial[var]

        yield from rec(f, 0, {})

    # ------------------------------------------------------------------ #
    # cache / memory management
    # ------------------------------------------------------------------ #
    def _invalidate_caches(self) -> None:
        """Swap in fresh computed tables and advance the cache generation.

        Called on garbage collection, variable reorder and explicit clears:
        any entry created before the event belongs to a dead generation and
        can never be observed afterwards.
        """
        self._tables = [dict() for _ in range(_NUM_OPS)]
        self._size_cache = {}
        self._last_multi_count = None
        self._cache_generation += 1

    @property
    def cache_generation(self) -> int:
        """Monotone counter of cache-invalidation events (GC / reorder /
        explicit clear).  Useful for asserting that no stale entries can
        survive those events."""
        return self._cache_generation

    def computed_table_sizes(self) -> Dict[str, int]:
        """Current entry count of each per-operation computed table."""
        return {name: len(self._tables[op]) for op, name in enumerate(OP_NAMES)}

    def clear_cache(self) -> None:
        """Drop all computed tables (safe at any time)."""
        self._invalidate_caches()

    def garbage_collect(self) -> int:
        """Mark-and-sweep collection of nodes unreachable from live handles.

        Returns the number of freed node slots.  The computed tables are
        invalidated (generation bump) because they may reference dead nodes.
        """
        start = time.perf_counter()
        live = len(self._var) - len(self._free)
        if live > self._peak_live_nodes:
            self._peak_live_nodes = live
        marked = bytearray(len(self._var))
        marked[FALSE] = marked[TRUE] = 1
        low_arr = self._low
        high_arr = self._high
        stack = [node for node in self._external_refs if node > 1]
        while stack:
            node = stack.pop()
            if marked[node]:
                continue
            marked[node] = 1
            stack.append(low_arr[node])
            stack.append(high_arr[node])
        freed = 0
        for key, node in list(self._unique.items()):
            if not marked[node]:
                del self._unique[key]
                self._var[node] = -2
                self._low[node] = -2
                self._high[node] = -2
                self._free.append(node)
                freed += 1
        self._invalidate_caches()
        self._gc_count += 1
        self._gc_freed_nodes += freed
        self._gc_pause_seconds += time.perf_counter() - start
        return freed

    def maybe_collect(self) -> None:
        """Run :meth:`garbage_collect` if the auto-GC threshold is exceeded."""
        if self._auto_gc_threshold is None:
            return
        if len(self._var) - len(self._free) > self._auto_gc_threshold:
            self.garbage_collect()

    # ------------------------------------------------------------------ #
    # performance counters
    # ------------------------------------------------------------------ #
    def perf_stats(self) -> Dict[str, float]:
        """Snapshot of the substrate's performance counters.

        Returns a flat numeric dict: per-op computed-table hits / misses /
        hit rate, unique-table probes and inserts, GC runs / pause time /
        freed nodes, cache generation and evictions, live and peak-live node
        counts.  :mod:`repro.perf` provides span / diff / JSON helpers on
        top of this method.
        """
        live = len(self._var) - len(self._free)
        if live > self._peak_live_nodes:
            self._peak_live_nodes = live
        stats: Dict[str, float] = {
            "live_nodes": live,
            "peak_live_nodes": self._peak_live_nodes,
            "unique_size": len(self._unique),
            "unique_probes": self._unique_probes,
            "unique_inserts": self._unique_inserts,
            "batch_runs": self._batch_runs,
            "batch_items": self._batch_items,
            "cache_generation": self._cache_generation,
            "cache_evictions": self._cache_evictions,
            "gc_runs": self._gc_count,
            "gc_pause_seconds": self._gc_pause_seconds,
            "gc_freed_nodes": self._gc_freed_nodes,
            "reorder_count": self._reorder_count,
            "reorder_swaps": self._reorder_swaps,
            "reorder_pause_seconds": self._reorder_pause_seconds,
            "reorder_nodes_before": self._reorder_nodes_before,
            "reorder_nodes_after": self._reorder_nodes_after,
        }
        total_hits = 0
        total_misses = 0
        for op, name in enumerate(OP_NAMES):
            hits = self._op_hits[op]
            misses = self._op_misses[op]
            total_hits += hits
            total_misses += misses
            stats[f"cache_{name}_hits"] = hits
            stats[f"cache_{name}_misses"] = misses
            lookups = hits + misses
            stats[f"cache_{name}_hit_rate"] = hits / lookups if lookups else 0.0
        stats["cache_hits"] = total_hits
        stats["cache_misses"] = total_misses
        lookups = total_hits + total_misses
        stats["cache_hit_rate"] = total_hits / lookups if lookups else 0.0
        return stats

    def raw_perf_counters(self) -> Tuple[int, int, int, int, int, float]:
        """Cheap counter snapshot for high-frequency callers (per-gate
        attribution): ``(cache_hits, cache_misses, unique_probes,
        unique_inserts, gc_runs, gc_pause_seconds)``.  Unlike
        :meth:`perf_stats` this builds no keyed dict, so it is safe to call
        twice per gate without showing up in profiles."""
        return (sum(self._op_hits), sum(self._op_misses), self._unique_probes,
                self._unique_inserts, self._gc_count, self._gc_pause_seconds)

    def reset_perf_counters(self) -> None:
        """Zero every counter reported by :meth:`perf_stats` (the cache
        generation and the tables themselves are left untouched)."""
        self._op_hits = [0] * _NUM_OPS
        self._op_misses = [0] * _NUM_OPS
        self._unique_probes = 0
        self._unique_inserts = 0
        self._batch_runs = 0
        self._batch_items = 0
        self._cache_evictions = 0
        self._gc_count = 0
        self._gc_pause_seconds = 0.0
        self._gc_freed_nodes = 0
        self._reorder_count = 0
        self._reorder_swaps = 0
        self._reorder_pause_seconds = 0.0
        self._reorder_nodes_before = 0
        self._reorder_nodes_after = 0
        self._peak_live_nodes = len(self._var) - len(self._free)

    # ------------------------------------------------------------------ #
    # dynamic variable reordering (in-place adjacent swaps + sifting)
    # ------------------------------------------------------------------ #
    @property
    def auto_reorder_threshold(self) -> Optional[int]:
        """Live-node threshold above which :meth:`maybe_reorder` triggers an
        automatic :meth:`sift` (``None`` disables auto-reordering).  Backs
        off after each triggered reorder; settable at any time."""
        return self._auto_reorder_threshold

    @auto_reorder_threshold.setter
    def auto_reorder_threshold(self, value: Optional[int]) -> None:
        self._auto_reorder_threshold = value

    def _reachable_node_count(self) -> int:
        """Nodes (terminals included) reachable from the registered external
        references — the live size every reordering decision is scored by.

        Unlike :meth:`num_live_nodes` this ignores allocated-but-unreachable
        slots, which in-place level swaps leave behind until the next
        garbage collection.
        """
        low_arr = self._low
        high_arr = self._high
        visited = bytearray(len(self._var))
        visited[0] = visited[1] = 1
        count = 2
        stack = [node for node in self._external_refs if node > 1]
        while stack:
            node = stack.pop()
            if visited[node]:
                continue
            visited[node] = 1
            count += 1
            low = low_arr[node]
            if not visited[low]:
                stack.append(low)
            high = high_arr[node]
            if not visited[high]:
                stack.append(high)
        return count

    def _build_var_index(self) -> List[List[int]]:
        """Per-variable lists of node ids labelled with that variable.

        The lists are *working supersets* during a reorder transaction:
        swaps move rewired nodes between lists and append freshly interned
        nodes, and entries can go stale (a node relabelled or freed by an
        interleaved garbage collection), so every consumer re-checks
        ``self._var[node]`` before trusting an entry.
        """
        index: List[List[int]] = [[] for _ in range(self.num_vars)]
        var_arr = self._var
        for node in range(2, len(var_arr)):
            var = var_arr[node]
            if var >= 0:
                index[var].append(node)
        return index

    def _swap_levels(self, level: int, x_nodes: List[int],
                     y_nodes: List[int]) -> Tuple[List[int], int]:
        """Core of every reordering operation: exchange ``level`` and
        ``level + 1`` by rewiring only the upper level's nodes, in place.

        ``x_nodes`` lists (a superset of) the nodes labelled with the upper
        variable; relabelled nodes are appended to ``y_nodes``.  Returns
        ``(new_x_nodes, rewired_count)`` where ``new_x_nodes`` holds the
        nodes still labelled with the (now lower) upper variable, including
        the freshly interned children of rewired nodes.

        Invariants the rewiring preserves (the whole point of the in-place
        algorithm):

        * every node id keeps denoting the same Boolean function, so
          external references and all nodes above / below the two levels
          are untouched;
        * a rewired node (one whose cofactors mention the lower variable)
          keeps its id — only its label and children change;
        * canonicity: rewired functions depend on *both* swapped variables,
          so their new unique-table keys can collide neither with each
          other nor with pre-existing lower-variable nodes.

        The caller owns cache invalidation and the reorder bookkeeping; the
        lower variable's nodes that become unreachable stay allocated until
        the next garbage collection.
        """
        l2v = self._level_to_var
        v2l = self._var_to_level
        var_x = l2v[level]
        var_y = l2v[level + 1]
        var_arr = self._var
        low_arr = self._low
        high_arr = self._high
        unique = self._unique
        unique_get = unique.get
        free = self._free
        kept: List[int] = []
        kept_append = kept.append
        y_append = y_nodes.append
        probes = 0
        inserts = 0
        rewired = 0
        for node in x_nodes:
            if var_arr[node] != var_x:
                continue  # stale index entry (relabelled or freed earlier)
            f0 = low_arr[node]
            f1 = high_arr[node]
            f0_y = var_arr[f0] == var_y
            f1_y = var_arr[f1] == var_y
            if not (f0_y or f1_y):
                # Independent of var_y: the node just ends up one level
                # lower, label and children untouched.
                kept_append(node)
                continue
            if f0_y:
                f00 = low_arr[f0]
                f01 = high_arr[f0]
            else:
                f00 = f01 = f0
            if f1_y:
                f10 = low_arr[f1]
                f11 = high_arr[f1]
            else:
                f10 = f11 = f1
            del unique[(var_x, f0, f1)]
            if f00 == f10:
                n0 = f00
            else:
                key = (var_x, f00, f10)
                probes += 1
                n0 = unique_get(key)
                if n0 is None:
                    inserts += 1
                    if free:
                        n0 = free.pop()
                        var_arr[n0] = var_x
                        low_arr[n0] = f00
                        high_arr[n0] = f10
                    else:
                        n0 = len(var_arr)
                        var_arr.append(var_x)
                        low_arr.append(f00)
                        high_arr.append(f10)
                    unique[key] = n0
                    kept_append(n0)
            if f01 == f11:
                n1 = f01
            else:
                key = (var_x, f01, f11)
                probes += 1
                n1 = unique_get(key)
                if n1 is None:
                    inserts += 1
                    if free:
                        n1 = free.pop()
                        var_arr[n1] = var_x
                        low_arr[n1] = f01
                        high_arr[n1] = f11
                    else:
                        n1 = len(var_arr)
                        var_arr.append(var_x)
                        low_arr.append(f01)
                        high_arr.append(f11)
                    unique[key] = n1
                    kept_append(n1)
            # A rewired function genuinely depends on var_y (its pre-swap
            # self depended on var_x), so n0 != n1 always holds here and the
            # relabelled node needs no reduction check.
            var_arr[node] = var_y
            low_arr[node] = n0
            high_arr[node] = n1
            unique[(var_y, n0, n1)] = node
            y_append(node)
            rewired += 1
        l2v[level] = var_y
        l2v[level + 1] = var_x
        v2l[var_x] = level + 1
        v2l[var_y] = level
        self._unique_probes += probes
        self._unique_inserts += inserts
        self._reorder_swaps += 1
        return kept, rewired

    def swap_adjacent_levels(self, level: int) -> int:
        """Exchange the variables at ``level`` and ``level + 1`` in place.

        Only the nodes labelled with the upper variable whose cofactors
        mention the lower variable are rewired — their node ids are
        preserved, so every registered external reference and every node
        above or below the two levels is untouched, and each node id keeps
        denoting the same Boolean function.  The computed tables and the
        memoised node counts are invalidated (generation bump) exactly as
        by garbage collection.

        Returns the number of rewired nodes.
        """
        if not 0 <= level < len(self._level_to_var) - 1:
            raise ValueError(f"level {level} has no adjacent level below it")
        start = time.perf_counter()
        var_x = self._level_to_var[level]
        var_arr = self._var
        x_nodes = [node for node in range(2, len(var_arr))
                   if var_arr[node] == var_x]
        _, rewired = self._swap_levels(level, x_nodes, [])
        self._invalidate_caches()
        self._reorder_pause_seconds += time.perf_counter() - start
        return rewired

    def sift(self, max_vars: int = 0, max_growth: float = 1.2,
             max_swaps: int = 0) -> Dict[str, int]:
        """Rudell sifting, in place, over everything reachable from the
        registered external references.

        Variables are processed in decreasing order of how many nodes carry
        their label; each is moved through every level by adjacent swaps
        (towards the nearer end first) and left at the position minimising
        the reachable node count.  ``max_vars`` bounds how many variables
        are sifted (0 = all); ``max_growth`` aborts a direction early once
        the node count exceeds ``max_growth`` times the best size seen,
        bounding the transient blow-up a bad position can cause;
        ``max_swaps`` (0 = unbounded) bounds the pause: it is checked
        before every exploratory swap, and the heaviest variables sift
        first, so a budget cut keeps the most valuable moves.  Only the
        move back to the current variable's best position ignores the
        budget (correctness requires completing it), so the overshoot is
        at most one level count.

        Every external reference stays valid throughout (node ids keep
        their functions); callers must only ensure no raw, unanchored node
        ids are held across the call, exactly as for
        :meth:`garbage_collect` — which runs at the start and end of the
        sift, so the size metric and the node store agree on what is live.

        Returns ``{"nodes_before", "nodes_after", "swaps"}`` for this run;
        the cumulative counters appear in :meth:`perf_stats`.
        """
        start = time.perf_counter()
        nodes_before = self._reachable_node_count()
        num_vars = self.num_vars
        if num_vars <= 1:
            return {"nodes_before": nodes_before, "nodes_after": nodes_before,
                    "swaps": 0}
        swaps_start = self._reorder_swaps
        # Reclaim pre-existing garbage so level sizes track live structure.
        self.garbage_collect()
        index = self._build_var_index()
        v2l = self._var_to_level
        l2v = self._level_to_var
        schedule = sorted(range(num_vars), key=lambda v: -len(index[v]))
        if max_vars:
            schedule = schedule[:max_vars]
        best_size = self._reachable_node_count()

        def swap_at(lvl: int) -> None:
            upper = l2v[lvl]
            lower = l2v[lvl + 1]
            index[upper], _ = self._swap_levels(lvl, index[upper], index[lower])

        def budget_spent() -> bool:
            return bool(max_swaps) and self._reorder_swaps - swaps_start >= max_swaps

        bottom = num_vars - 1
        for var in schedule:
            if budget_spent():
                break
            if not index[var]:
                continue  # no nodes carry this label; moving it is free
            start_level = v2l[var]
            best_level = start_level
            best = best_size
            directions = ((1, -1) if bottom - start_level <= start_level
                          else (-1, 1))
            for direction in directions:
                while not budget_spent():
                    level = v2l[var]
                    if direction > 0:
                        if level == bottom:
                            break
                        swap_at(level)
                    else:
                        if level == 0:
                            break
                        swap_at(level - 1)
                    size = self._reachable_node_count()
                    if size < best:
                        best = size
                        best_level = v2l[var]
                    elif size > best * max_growth:
                        break
            while v2l[var] > best_level:
                swap_at(v2l[var] - 1)
            while v2l[var] < best_level:
                swap_at(v2l[var])
            best_size = best
            # Bound the garbage the swaps leave behind between variables.
            if len(self._var) - len(self._free) > 2 * best_size + 1024:
                self.garbage_collect()
        self.garbage_collect()
        nodes_after = self._reachable_node_count()
        self._invalidate_caches()
        self._reorder_count += 1
        self._reorder_nodes_before = nodes_before
        self._reorder_nodes_after = nodes_after
        self._reorder_pause_seconds += time.perf_counter() - start
        return {"nodes_before": nodes_before, "nodes_after": nodes_after,
                "swaps": self._reorder_swaps - swaps_start}

    #: Work target (node visits, roughly swap count x live size) of one
    #: automatically triggered sift: bounds the pause a ``maybe_reorder``
    #: can inject between two gates, independent of manager size.
    _AUTO_REORDER_WORK_TARGET = 20_000_000

    def maybe_reorder(self) -> bool:
        """Run :meth:`sift` if the auto-reorder threshold is exceeded.

        Mirrors :meth:`maybe_collect`: callers invoke it at operation
        boundaries (the simulator does, between gates).  The trigger is the
        *reachable* node count — allocated-but-dead swap or apply debris is
        not a reason to reorder, and a store found to be mostly garbage is
        collected on the spot instead (so the cheap allocated-count guard
        holds again at the following boundaries) — and the
        sift runs under a swap budget sized so the pause stays bounded
        (:attr:`_AUTO_REORDER_WORK_TARGET` node visits — each swap's size
        re-scoring costs one O(live) reachability pass) even on managers
        with hundreds of variables; the heaviest variables sift first, so
        the budget is spent where it matters.  When the store is so large
        that even one full variable pass would blow the target, the sift
        is skipped entirely and only the threshold backs off — a stall of
        minutes between two gates is worse than a bigger diagram.  After a
        triggered reorder
        the threshold backs off geometrically — to at least double its
        previous value and at least twice the post-reorder live size — so
        a workload whose node count genuinely grows reorders only a
        logarithmic number of times instead of thrashing.  Returns True
        when a reorder ran.
        """
        threshold = self._auto_reorder_threshold
        if threshold is None:
            return False
        if len(self._var) - len(self._free) <= threshold:
            return False
        live = self._reachable_node_count()
        if live <= threshold:
            # The excess is garbage, not live growth: collect it so the
            # cheap allocated-count guard above holds again at the next
            # boundaries, instead of re-paying this reachability scan on
            # every gate until auto-GC's (much larger) threshold trips.
            self.garbage_collect()
            return False
        budget = self._AUTO_REORDER_WORK_TARGET // live
        if budget < 2 * self.num_vars:
            # Even one down-and-up pass of a single variable would exceed
            # the work target: sifting is unaffordable at this size, so
            # only back off (no sift) instead of stalling the simulation.
            self._auto_reorder_threshold = 2 * threshold
            return False
        result = self.sift(max_swaps=budget)
        self._auto_reorder_threshold = max(2 * threshold,
                                           2 * result["nodes_after"])
        return True

    def set_order(self, new_order: Sequence[int],
                  roots: Sequence[Bdd] = ()) -> List[Bdd]:
        """Install ``new_order`` (variable indices, top to bottom) as the
        variable order, in place, as a sequence of adjacent-level swaps.

        Unlike the historical rebuild implementation this never resets the
        node store: *every* registered external reference — not only the
        handles listed in ``roots`` — stays valid and keeps denoting the
        same function.  ``roots`` is accepted for backwards compatibility;
        fresh handles to the (unchanged) root nodes are returned in the
        same order.  The computed tables and memoised node counts are
        invalidated exactly as by garbage collection.
        """
        order = list(new_order)
        if sorted(order) != list(range(self.num_vars)):
            raise ValueError("new_order must be a permutation of all variables")
        start = time.perf_counter()
        nodes_before = self._reachable_node_count()
        index = self._build_var_index()
        v2l = self._var_to_level
        l2v = self._level_to_var
        for target_level, var in enumerate(order):
            # Bubble ``var`` up from its current level; levels above
            # ``target_level`` are already final, so it only moves up.
            while v2l[var] > target_level:
                level = v2l[var] - 1
                upper = l2v[level]
                index[upper], _ = self._swap_levels(level, index[upper],
                                                    index[var])
        self._invalidate_caches()
        self._reorder_count += 1
        self._reorder_nodes_before = nodes_before
        self._reorder_nodes_after = self._reachable_node_count()
        self._reorder_pause_seconds += time.perf_counter() - start
        return [self._wrap(root.node) for root in roots]

    def __repr__(self) -> str:
        return (f"BddManager(num_vars={self.num_vars}, "
                f"live_nodes={self.num_live_nodes()})")
