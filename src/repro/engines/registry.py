"""Capability-aware engine registry with aliases and automatic selection.

Engines register themselves with the :func:`register_engine` decorator::

    @register_engine("bitslice", aliases=("bdd", "sliqsim"))
    class BitSliceEngine(Engine):
        capabilities = Capabilities(...)

The registry resolves aliases, instantiates engines by name, and implements
the ``"auto"`` selector: given a circuit's gate profile and the resource
limits, it picks the best-fitting registered engine by capability —
the polynomial-time tableau for pure-Clifford circuits, the dense vector
below the dense cut-off, the exact bit-sliced engine otherwise.  Third-party
engines that register with honest capabilities participate in selection
automatically (see ``examples/custom_engine.py``).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Type

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.gates import is_clifford_gate
from repro.engines.base import Capabilities, Engine, dense_memory_nodes
from repro.engines.limits import ResourceLimits

#: The pseudo-engine name that triggers capability-based selection.
AUTO_ENGINE = "auto"

_REGISTRY: Dict[str, Type[Engine]] = {}
_ALIASES: Dict[str, str] = {}


class UnknownEngineError(KeyError):
    """Raised when an engine name (or alias) is not registered."""

    def __init__(self, name: str, message: Optional[str] = None):
        if message is None:
            available = ", ".join(sorted(_REGISTRY))
            aliases = ", ".join(sorted(_ALIASES))
            message = (f"unknown engine {name!r}; registered engines: {available}"
                       + (f"; aliases: {aliases}" if aliases else ""))
        super().__init__(message)
        self.name = name

    def __str__(self) -> str:
        # The message itself, not KeyError's quoted repr of it.
        return self.args[0]


def register_engine(name: str, *, aliases: Tuple[str, ...] = (),
                    replace: bool = False):
    """Class decorator registering an :class:`Engine` subclass under
    ``name`` (plus optional ``aliases``).

    The class must carry a ``capabilities`` descriptor whose ``name`` matches
    the registered name.  Re-registering an existing name raises unless
    ``replace=True`` (useful in tests and notebooks).
    """
    if name == AUTO_ENGINE:
        raise ValueError(f"{AUTO_ENGINE!r} is reserved for automatic selection")

    def decorator(cls: Type[Engine]) -> Type[Engine]:
        capabilities = getattr(cls, "capabilities", None)
        if not isinstance(capabilities, Capabilities):
            raise TypeError(
                f"engine class {cls.__name__} must declare a Capabilities "
                f"descriptor in its 'capabilities' attribute")
        if capabilities.name != name:
            raise ValueError(
                f"capabilities.name {capabilities.name!r} does not match the "
                f"registered name {name!r}")
        taken = set(_REGISTRY) | set(_ALIASES)
        if not replace:
            for candidate in (name,) + tuple(aliases):
                if candidate in taken:
                    raise ValueError(
                        f"engine name {candidate!r} is already registered "
                        f"(pass replace=True to override)")
        _REGISTRY[name] = cls
        for alias in aliases:
            if alias == AUTO_ENGINE:
                raise ValueError(f"{AUTO_ENGINE!r} is reserved for automatic selection")
            _ALIASES[alias] = name
        return cls

    return decorator


def unregister_engine(name: str) -> None:
    """Remove an engine (and its aliases) from the registry."""
    canonical = _ALIASES.get(name, name)
    _REGISTRY.pop(canonical, None)
    for alias in [alias for alias, target in _ALIASES.items() if target == canonical]:
        del _ALIASES[alias]


def resolve_engine_name(name: str) -> str:
    """Canonical engine name for ``name`` (resolving aliases); raises
    :class:`UnknownEngineError` for unregistered names."""
    canonical = _ALIASES.get(name, name)
    if canonical not in _REGISTRY:
        raise UnknownEngineError(name)
    return canonical


def get_engine_class(name: str) -> Type[Engine]:
    """The registered engine class for ``name`` or an alias of it."""
    return _REGISTRY[resolve_engine_name(name)]


def create_engine(name: str) -> Engine:
    """Instantiate a fresh engine by name or alias."""
    return get_engine_class(name)()


def available_engines() -> Tuple[str, ...]:
    """Sorted canonical names of every registered engine."""
    return tuple(sorted(_REGISTRY))


def engine_aliases() -> Dict[str, str]:
    """Mapping of alias -> canonical engine name."""
    return dict(_ALIASES)


def engine_capabilities(name: str) -> Capabilities:
    """The :class:`Capabilities` descriptor of a registered engine."""
    return get_engine_class(name).capabilities


def engine_labels() -> Dict[str, str]:
    """Mapping of canonical engine name -> human-readable table label."""
    return {name: cls.capabilities.label for name, cls in _REGISTRY.items()}


def select_engine(circuit: QuantumCircuit,
                  limits: Optional[ResourceLimits] = None) -> str:
    """Pick the best registered engine for ``circuit`` under ``limits``.

    Eligibility is purely capability-driven: an engine qualifies when its
    declared gate set supports every gate of the circuit (checked once per
    distinct gate kind and Clifford-ness, not once per gate) and the register
    fits under its practical qubit ceiling (dense engines are additionally
    capped by ``limits.max_dense_qubits``).  Among eligible engines the one
    with the lowest ``selection_priority`` wins (name order breaks ties), so
    a pure-Clifford circuit lands on the tableau, a small non-Clifford
    circuit on the dense vector, and a wide non-Clifford circuit on the
    exact bit-sliced engine.
    """
    limits = limits or ResourceLimits()
    # One walk over the gates: a representative gate per distinct kind and
    # Clifford-ness, which is everything ``supports_gate`` reads.
    profile = {}
    for gate in circuit.gates:
        profile.setdefault((gate.kind, is_clifford_gate(gate)), gate)
    best: Optional[Tuple[int, str]] = None
    for name in available_engines():
        capabilities = _REGISTRY[name].capabilities
        ceiling = capabilities.max_practical_qubits
        if capabilities.dense:
            ceiling = (limits.max_dense_qubits if ceiling is None
                       else min(ceiling, limits.max_dense_qubits))
            # A dense engine whose fixed 2**n footprint already blows the
            # node budget would MO on its first limit check; never pick it.
            if (limits.max_nodes is not None
                    and dense_memory_nodes(circuit.num_qubits) > limits.max_nodes):
                continue
        if ceiling is not None and circuit.num_qubits > ceiling:
            continue
        if not all(map(capabilities.supports_gate, profile.values())):
            continue
        key = (capabilities.selection_priority, name)
        if best is None or key < best:
            best = key
    if best is None:
        raise UnknownEngineError(
            AUTO_ENGINE,
            message=f"no registered engine supports circuit {circuit.name!r}")
    return best[1]


def resolve_engine(name: str, circuit: QuantumCircuit,
                   limits: Optional[ResourceLimits] = None) -> str:
    """Resolve ``name`` to a canonical engine, treating ``"auto"`` as a
    request for capability-based selection."""
    if name == AUTO_ENGINE:
        return select_engine(circuit, limits)
    return resolve_engine_name(name)
