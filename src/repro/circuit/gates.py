"""Gate definitions for the supported gate set.

The set matches the paper's Table I — X, Y, Z, H, S, T, Rx(pi/2), Ry(pi/2),
CNOT, CZ, Toffoli (any number of controls), Fredkin (controlled SWAP) — plus
three exactly-representable conveniences the original tool also accepts in
practice: S-dagger, T-dagger and the uncontrolled SWAP.  Every entry of every
matrix lies in the ring ``Z[w]/sqrt(2)^k``, so simulation stays exact.

Each gate kind carries:

* its 2x2 (or SWAP-style) base matrix both as exact
  :class:`~repro.algebra.omega.AlgebraicComplex` entries and as a numpy array,
* whether it is a Clifford gate (relevant for the stabilizer baseline),
* whether it introduces imaginary components (the paper notes that Y, S, T and
  Rx(pi/2) couple the a/b/c/d bit-planes, while the others keep them
  independent), and
* the increment of the global ``k`` exponent (1 for H, Rx(pi/2), Ry(pi/2),
  otherwise 0).
"""

from __future__ import annotations

import enum
import functools
import math
import operator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.algebra import AlgebraicComplex

if TYPE_CHECKING:
    import numpy as np

_ONE = AlgebraicComplex.one()
_ZERO = AlgebraicComplex.zero()
_I = AlgebraicComplex.imaginary_unit()
_W = AlgebraicComplex.omega_power(1)
_NEG_ONE = AlgebraicComplex.from_int(-1)
_NEG_I = -_I
_INV_SQRT2 = AlgebraicComplex(0, 0, 0, 1, 1, canonical=False)  # 1/sqrt(2)


class GateKind(str, enum.Enum):
    """Enumeration of supported gate kinds."""

    X = "x"
    Y = "y"
    Z = "z"
    H = "h"
    S = "s"
    SDG = "sdg"
    T = "t"
    TDG = "tdg"
    RX_PI_2 = "rx_pi_2"
    RY_PI_2 = "ry_pi_2"
    CX = "cx"
    CZ = "cz"
    CCX = "ccx"
    CSWAP = "cswap"
    SWAP = "swap"
    MEASURE = "measure"
    RESET = "reset"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class GateSpec:
    """Static description of one gate kind."""

    kind: GateKind
    num_targets: int
    min_controls: int
    is_clifford: bool
    has_imaginary: bool
    k_increment: int
    base_matrix_exact: Optional[Tuple[Tuple[AlgebraicComplex, ...], ...]]

    @functools.cached_property
    def base_matrix(self) -> Optional[np.ndarray]:
        """The base single-qubit matrix as a read-only complex numpy array,
        built once per kind (``None`` for SWAP-style and measurement gates)."""
        if self.base_matrix_exact is None:
            return None
        import numpy as np

        matrix = np.array(
            [[entry.to_complex() for entry in row] for row in self.base_matrix_exact],
            dtype=complex,
        )
        matrix.flags.writeable = False
        return matrix


def _m(rows: Sequence[Sequence[AlgebraicComplex]]) -> Tuple[Tuple[AlgebraicComplex, ...], ...]:
    return tuple(tuple(row) for row in rows)


#: Registry of gate specifications, keyed by :class:`GateKind`.
GATE_SPECS: Dict[GateKind, GateSpec] = {
    GateKind.X: GateSpec(GateKind.X, 1, 0, True, False, 0,
                         _m([[_ZERO, _ONE], [_ONE, _ZERO]])),
    GateKind.Y: GateSpec(GateKind.Y, 1, 0, True, True, 0,
                         _m([[_ZERO, _NEG_I], [_I, _ZERO]])),
    GateKind.Z: GateSpec(GateKind.Z, 1, 0, True, False, 0,
                         _m([[_ONE, _ZERO], [_ZERO, _NEG_ONE]])),
    GateKind.H: GateSpec(GateKind.H, 1, 0, True, False, 1,
                         _m([[_INV_SQRT2, _INV_SQRT2],
                             [_INV_SQRT2, -_INV_SQRT2]])),
    GateKind.S: GateSpec(GateKind.S, 1, 0, True, True, 0,
                         _m([[_ONE, _ZERO], [_ZERO, _I]])),
    GateKind.SDG: GateSpec(GateKind.SDG, 1, 0, True, True, 0,
                           _m([[_ONE, _ZERO], [_ZERO, _NEG_I]])),
    GateKind.T: GateSpec(GateKind.T, 1, 0, False, True, 0,
                         _m([[_ONE, _ZERO], [_ZERO, _W]])),
    GateKind.TDG: GateSpec(GateKind.TDG, 1, 0, False, True, 0,
                           _m([[_ONE, _ZERO], [_ZERO, AlgebraicComplex.omega_power(7)]])),
    GateKind.RX_PI_2: GateSpec(GateKind.RX_PI_2, 1, 0, True, True, 1,
                               _m([[_INV_SQRT2, _NEG_I * _INV_SQRT2],
                                   [_NEG_I * _INV_SQRT2, _INV_SQRT2]])),
    GateKind.RY_PI_2: GateSpec(GateKind.RY_PI_2, 1, 0, True, False, 1,
                               _m([[_INV_SQRT2, -_INV_SQRT2],
                                   [_INV_SQRT2, _INV_SQRT2]])),
    GateKind.CX: GateSpec(GateKind.CX, 1, 1, True, False, 0,
                          _m([[_ZERO, _ONE], [_ONE, _ZERO]])),
    GateKind.CZ: GateSpec(GateKind.CZ, 1, 1, True, False, 0,
                          _m([[_ONE, _ZERO], [_ZERO, _NEG_ONE]])),
    GateKind.CCX: GateSpec(GateKind.CCX, 1, 1, False, False, 0,
                           _m([[_ZERO, _ONE], [_ONE, _ZERO]])),
    GateKind.CSWAP: GateSpec(GateKind.CSWAP, 2, 1, False, False, 0, None),
    GateKind.SWAP: GateSpec(GateKind.SWAP, 2, 0, True, False, 0, None),
    GateKind.MEASURE: GateSpec(GateKind.MEASURE, 1, 0, True, False, 0, None),
    GateKind.RESET: GateSpec(GateKind.RESET, 1, 0, True, False, 0, None),
}

#: Gate kinds allowed by the paper's Table I (used to validate "paper mode").
PAPER_GATE_KINDS = frozenset({
    GateKind.X, GateKind.Y, GateKind.Z, GateKind.H, GateKind.S, GateKind.T,
    GateKind.RX_PI_2, GateKind.RY_PI_2, GateKind.CX, GateKind.CZ,
    GateKind.CCX, GateKind.CSWAP,
})


def _as_integer(value, what: str) -> int:
    """``value`` as an ``int``: an integral value of another type (a numpy
    integer) is converted, and a ``bool`` or a non-integral value (``1.0``)
    raises ``ValueError``.  The one integral check of gate indices, circuit
    widths and measurement indices."""
    if value.__class__ is not int:
        if isinstance(value, bool):
            raise ValueError(f"{what} {value!r} is not an integer")
        try:
            value = operator.index(value)
        except TypeError:
            raise ValueError(f"{what} {value!r} is not an integer") from None
    return value


def _indices(values: Sequence[int], what: str) -> Tuple[int, ...]:
    """``values`` as a tuple of ``int`` (see :func:`_as_integer`); a
    negative one raises ``ValueError``."""
    indices = []
    for value in values:
        value = _as_integer(value, what)
        if value < 0:
            raise ValueError(f"{what} {value} is negative")
        indices.append(value)
    return tuple(indices)


@dataclass(frozen=True)
class Gate:
    """One gate application: a kind, target qubit(s) and control qubit(s).

    ``targets`` holds one qubit for single-target gates, two for SWAP-style
    gates.  ``controls`` may hold any number of qubits for CCX (the paper's
    general Toffoli) and CSWAP; CX and CZ require exactly one control.

    ``clbits`` names the classical bit a :attr:`GateKind.MEASURE` instruction
    writes its outcome into (``measure q[i] -> c[j]`` in OpenQASM), and is
    empty for every other kind.  ``condition`` makes the instruction
    classically controlled: it only executes when the integer value of the
    classical register (clbit 0 is the least-significant bit, the OpenQASM
    2.0 ``if(c==v)`` convention) equals ``condition``.
    """

    kind: GateKind
    targets: Tuple[int, ...]
    controls: Tuple[int, ...] = field(default_factory=tuple)
    clbits: Tuple[int, ...] = field(default_factory=tuple)
    condition: Optional[int] = None

    def __post_init__(self):
        spec = GATE_SPECS[self.kind]
        if len(self.targets) != spec.num_targets:
            raise ValueError(
                f"{self.kind.value} expects {spec.num_targets} target(s), "
                f"got {len(self.targets)}")
        if len(self.controls) < spec.min_controls:
            raise ValueError(
                f"{self.kind.value} expects at least {spec.min_controls} "
                f"control(s), got {len(self.controls)}")
        if self.kind in (GateKind.CX, GateKind.CZ) and len(self.controls) != 1:
            raise ValueError(f"{self.kind.value} expects exactly one control")
        # Indices are stored as plain ints, so equal gates compare, hash and
        # fingerprint equal whatever integer type built them.
        set_field = object.__setattr__
        touched = self.targets + self.controls
        for qubit in touched:
            if qubit.__class__ is not int or qubit < 0:
                set_field(self, "targets", _indices(self.targets, "qubit index"))
                set_field(self, "controls", _indices(self.controls, "qubit index"))
                touched = self.targets + self.controls
                break
        if len(set(touched)) != len(touched):
            raise ValueError("a gate cannot touch the same qubit twice")
        if self.kind is GateKind.MEASURE:
            if len(self.clbits) > 1:
                raise ValueError("measure writes at most one classical bit")
        elif self.clbits:
            raise ValueError(
                f"{self.kind.value} does not write a classical bit")
        if self.clbits:
            set_field(self, "clbits", _indices(self.clbits, "classical bit index"))
        if self.condition is not None:
            set_field(self, "condition",
                      _indices((self.condition,), "classical condition value")[0])

    @property
    def spec(self) -> GateSpec:
        """The static :class:`GateSpec` of this gate's kind."""
        return GATE_SPECS[self.kind]

    @property
    def qubits(self) -> Tuple[int, ...]:
        """All qubits touched by the gate (controls then targets)."""
        return self.controls + self.targets

    @property
    def is_two_qubit_or_more(self) -> bool:
        """True when the gate touches more than one qubit."""
        return len(self.qubits) > 1

    def inverse(self) -> "Gate":
        """The exact inverse gate, when it exists inside the supported set."""
        self_inverse = {
            GateKind.X, GateKind.Y, GateKind.Z, GateKind.H,
            GateKind.CX, GateKind.CZ, GateKind.CCX, GateKind.CSWAP,
            GateKind.SWAP,
        }
        if self.kind in self_inverse:
            return self
        swaps = {
            GateKind.S: GateKind.SDG,
            GateKind.SDG: GateKind.S,
            GateKind.T: GateKind.TDG,
            GateKind.TDG: GateKind.T,
        }
        if self.kind in swaps:
            return Gate(swaps[self.kind], self.targets, self.controls)
        raise ValueError(f"gate {self.kind.value} has no inverse in the supported set")

    def __str__(self) -> str:
        parts = [self.kind.value]
        if self.condition is not None:
            parts.insert(0, f"if(c=={self.condition})")
        if self.controls:
            parts.append("c=" + ",".join(map(str, self.controls)))
        parts.append("t=" + ",".join(map(str, self.targets)))
        if self.clbits:
            parts.append("cl=" + ",".join(map(str, self.clbits)))
        return " ".join(parts)


def gate_matrix_exact(kind: GateKind) -> Tuple[Tuple[AlgebraicComplex, ...], ...]:
    """Exact 2x2 base matrix of a single-target gate kind."""
    spec = GATE_SPECS[kind]
    if spec.base_matrix_exact is None:
        raise ValueError(f"gate {kind.value} has no 2x2 base matrix")
    return spec.base_matrix_exact


def gate_matrix(kind: GateKind) -> np.ndarray:
    """Numpy 2x2 base matrix of a single-target gate kind (shared, read-only)."""
    spec = GATE_SPECS[kind]
    matrix = spec.base_matrix
    if matrix is None:
        raise ValueError(f"gate {kind.value} has no 2x2 base matrix")
    return matrix


def full_unitary(gate: Gate, num_qubits: int) -> np.ndarray:
    """The dense ``2**n x 2**n`` unitary of ``gate`` on ``num_qubits`` qubits.

    Qubit 0 is the most significant bit of the basis index (the paper's
    convention).  Only intended for small ``num_qubits`` (tests, examples).
    """
    import numpy as np

    dim = 1 << num_qubits
    unitary = np.zeros((dim, dim), dtype=complex)

    def bit(index: int, qubit: int) -> int:
        return (index >> (num_qubits - 1 - qubit)) & 1

    def flip(index: int, qubit: int) -> int:
        return index ^ (1 << (num_qubits - 1 - qubit))

    if gate.kind in (GateKind.SWAP, GateKind.CSWAP):
        qa, qb = gate.targets
        for column in range(dim):
            row = column
            if all(bit(column, c) for c in gate.controls) and bit(column, qa) != bit(column, qb):
                row = flip(flip(column, qa), qb)
            unitary[row, column] = 1.0
        return unitary

    matrix = gate_matrix(gate.kind)
    target = gate.targets[0]
    for column in range(dim):
        if not all(bit(column, c) for c in gate.controls):
            unitary[column, column] = 1.0
            continue
        t_bit = bit(column, target)
        partner = flip(column, target)
        # Column 'column' of the full unitary places matrix[:, t_bit] into the
        # rows for target=0/1 with all other bits fixed.
        row0 = column if t_bit == 0 else partner
        row1 = partner if t_bit == 0 else column
        unitary[row0, column] += matrix[0, t_bit]
        unitary[row1, column] += matrix[1, t_bit]
    return unitary


def is_clifford_gate(gate: Gate) -> bool:
    """True if the gate (including its control structure) is a Clifford gate.

    CCX/CSWAP are Clifford only in their degenerate (zero- or for CCX
    one-control) forms; with their full control counts they are not.
    """
    if gate.kind in (GateKind.CCX,):
        return len(gate.controls) <= 1
    if gate.kind in (GateKind.CSWAP,):
        return len(gate.controls) == 0
    return gate.spec.is_clifford
