"""Exact arithmetic over ``Z[w] / sqrt(2)^k`` with ``w = exp(i*pi/4)``.

Every amplitude produced by the gate set of the paper (Table I) applied to a
computational basis state can be written exactly as

    alpha = (a*w**3 + b*w**2 + c*w + d) / sqrt(2)**k

with integers ``a, b, c, d, k`` (paper Eq. 5).  The ring ``Z[w]`` is the ring
of integers of the eighth cyclotomic field, with the single relation
``w**4 == -1``.  The square root of two is itself an element of the ring:
``sqrt(2) == w - w**3``, which is what makes the denominator convention work.

Two classes are exposed:

* :class:`AlgebraicComplex` — one exact amplitude.  Supports ring arithmetic,
  exact equality, conversion to ``complex`` and exact ``|alpha|**2``.
* :class:`AlgebraicVector` — a dense vector of exact amplitudes over ``n``
  qubits with exact gate application for the supported gate set.  It is the
  *dense exact oracle* used throughout the test-suite to validate the
  bit-sliced BDD engine bit-for-bit (integer equality, no float tolerance).
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple

#: Numerical value of ``w = exp(i*pi/4)`` for float conversions.
OMEGA = cmath.exp(1j * math.pi / 4)

#: Numerical value of ``sqrt(2)`` for float conversions.
SQRT2 = math.sqrt(2.0)

#: Integers of at most this many bits convert to float, and ``x + y*SQRT2``
#: stays finite, when both ``x`` and ``y`` fit in it.
_FLOAT_SAFE_BITS = 1021

#: ``SQRT2 ** k`` is finite below this exponent.
_DIRECT_SCALE_LIMIT = 2048


def sqrt2_ratio_to_float(x: int, y: int, k: int) -> float:
    """``(x + y*sqrt(2)) / 2**k`` as a float, for any ``k`` and integer size.

    The direct formula ``(x + y*SQRT2) / 2.0**k`` overflows once ``k``
    reaches 1024 (a layer of 1 024 Hadamards) and when ``x`` or ``y``
    outgrow the float range.  Scaling by an exact power of two with
    :func:`math.ldexp` instead gives the same bits wherever that formula
    was finite and both numerators fit in ``_FLOAT_SAFE_BITS``, and
    underflows gracefully to ``0.0``.  Wider numerators drop low bits
    first, which lie far below the 53-bit mantissa.
    """
    excess = max(x.bit_length(), y.bit_length()) - _FLOAT_SAFE_BITS
    if excess > 0:
        x >>= excess
        y >>= excess
        k -= excess
    return math.ldexp(x + y * SQRT2, -k)


def _poly_mul(p: Tuple[int, int, int, int], q: Tuple[int, int, int, int]) -> Tuple[int, int, int, int]:
    """Multiply two elements of ``Z[w]`` given as ``(a, b, c, d)`` coefficient
    tuples of ``a*w^3 + b*w^2 + c*w + d``, reducing with ``w^4 = -1``."""
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    # Collect the convolution by resulting power of w (0..6) and reduce
    # w^4 -> -1, w^5 -> -w, w^6 -> -w^2.
    d = d1 * d2 - (c1 * a2 + b1 * b2 + a1 * c2)
    c = d1 * c2 + c1 * d2 - (b1 * a2 + a1 * b2)
    b = d1 * b2 + c1 * c2 + b1 * d2 - (a1 * a2)
    a = d1 * a2 + c1 * b2 + b1 * c2 + a1 * d2
    return (a, b, c, d)


class AlgebraicComplex:
    """An exact complex amplitude ``(a*w^3 + b*w^2 + c*w + d) / sqrt(2)^k``.

    Instances are immutable.  ``a`` is the coefficient of ``w^3``, ``b`` of
    ``w^2``, ``c`` of ``w`` and ``d`` the constant term, matching the notation
    of the paper.  ``k`` may be any integer (negative ``k`` means the value is
    scaled *up* by powers of ``sqrt(2)``; the simulator itself only ever
    produces ``k >= 0``).

    The constructor canonicalises the representation so that exact equality of
    values coincides with structural equality of the five integers: trailing
    factors of ``sqrt(2)`` common to all four coefficients are cancelled
    against ``k`` (down to ``k == 0``), and the zero value is always stored as
    ``(0, 0, 0, 0, 0)``.
    """

    __slots__ = ("a", "b", "c", "d", "k")

    def __init__(self, a: int = 0, b: int = 0, c: int = 0, d: int = 0, k: int = 0,
                 *, canonical: bool = True):
        if canonical:
            a, b, c, d, k = _canonicalise(a, b, c, d, k)
        self.a = a
        self.b = b
        self.c = c
        self.d = d
        self.k = k

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @staticmethod
    def zero() -> "AlgebraicComplex":
        """The exact value ``0``."""
        return AlgebraicComplex(0, 0, 0, 0, 0, canonical=False)

    @staticmethod
    def one() -> "AlgebraicComplex":
        """The exact value ``1``."""
        return AlgebraicComplex(0, 0, 0, 1, 0, canonical=False)

    @staticmethod
    def from_int(value: int) -> "AlgebraicComplex":
        """The exact integer ``value``."""
        return AlgebraicComplex(0, 0, 0, value, 0)

    @staticmethod
    def omega_power(t: int) -> "AlgebraicComplex":
        """The exact value ``w**t`` for any integer ``t``."""
        t %= 8
        sign = 1
        if t >= 4:
            sign = -1
            t -= 4
        coeffs = [0, 0, 0, 0]
        # index 3 - t selects the coefficient slot of w**t in (a, b, c, d).
        coeffs[3 - t] = sign
        return AlgebraicComplex(*coeffs, 0)

    @staticmethod
    def sqrt2_power(k: int) -> "AlgebraicComplex":
        """The exact value ``sqrt(2)**k`` for any integer ``k``."""
        return AlgebraicComplex(0, 0, 0, 1, -k)

    @staticmethod
    def imaginary_unit() -> "AlgebraicComplex":
        """The exact value ``i`` (which equals ``w**2``)."""
        return AlgebraicComplex.omega_power(2)

    # ------------------------------------------------------------------ #
    # arithmetic
    # ------------------------------------------------------------------ #
    def _coeffs(self) -> Tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def _scaled_to_k(self, k: int) -> Tuple[int, int, int, int]:
        """Return the numerator coefficients of ``self`` rewritten over the
        denominator ``sqrt(2)**k`` (``k`` must be ``>= self.k``)."""
        delta = k - self.k
        if delta < 0:
            raise ValueError("cannot scale to a smaller denominator exponent")
        coeffs = self._coeffs()
        # Multiply by 2 for every full power of two in sqrt(2)**delta …
        factor = 1 << (delta // 2)
        coeffs = tuple(x * factor for x in coeffs)
        # … and by sqrt(2) = w - w^3 once if delta is odd.
        if delta % 2:
            coeffs = _poly_mul(coeffs, (-1, 0, 1, 0))
        return coeffs  # type: ignore[return-value]

    def __add__(self, other: "AlgebraicComplex") -> "AlgebraicComplex":
        if not isinstance(other, AlgebraicComplex):
            return NotImplemented
        k = max(self.k, other.k)
        p = self._scaled_to_k(k)
        q = other._scaled_to_k(k)
        return AlgebraicComplex(*(x + y for x, y in zip(p, q)), k)

    def __sub__(self, other: "AlgebraicComplex") -> "AlgebraicComplex":
        if not isinstance(other, AlgebraicComplex):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "AlgebraicComplex":
        return AlgebraicComplex(-self.a, -self.b, -self.c, -self.d, self.k, canonical=False)

    def __mul__(self, other: "AlgebraicComplex") -> "AlgebraicComplex":
        if isinstance(other, int):
            other = AlgebraicComplex.from_int(other)
        if not isinstance(other, AlgebraicComplex):
            return NotImplemented
        coeffs = _poly_mul(self._coeffs(), other._coeffs())
        return AlgebraicComplex(*coeffs, self.k + other.k)

    __rmul__ = __mul__

    def conjugate(self) -> "AlgebraicComplex":
        """The exact complex conjugate."""
        # conj(w) = w^-1 = -w^3, conj(w^2) = -w^2, conj(w^3) = -w.
        return AlgebraicComplex(-self.c, -self.b, -self.a, self.d, self.k)

    def divided_by_sqrt2(self, count: int = 1) -> "AlgebraicComplex":
        """The exact value ``self / sqrt(2)**count``."""
        return AlgebraicComplex(self.a, self.b, self.c, self.d, self.k + count)

    # ------------------------------------------------------------------ #
    # queries and conversions
    # ------------------------------------------------------------------ #
    def is_zero(self) -> bool:
        """True iff the value is exactly zero."""
        return self.a == 0 and self.b == 0 and self.c == 0 and self.d == 0

    def abs_squared_exact(self) -> Tuple[int, int, int]:
        """Exact ``|alpha|**2`` as a triple ``(x, y, k)`` meaning
        ``(x + y*sqrt(2)) / 2**k``."""
        a, b, c, d = self.a, self.b, self.c, self.d
        x = a * a + b * b + c * c + d * d
        y = a * b + b * c + c * d - a * d
        return (x, y, self.k)

    def abs_squared_fraction(self) -> Fraction:
        """``|alpha|**2`` as an exact :class:`fractions.Fraction` **when the
        value is rational** (``y == 0``); raises :class:`ValueError` otherwise."""
        x, y, k = self.abs_squared_exact()
        if y != 0:
            raise ValueError("|alpha|^2 is irrational (contains a sqrt(2) term)")
        return Fraction(x, 1 << k)

    def abs_squared(self) -> float:
        """``|alpha|**2`` as a float."""
        return sqrt2_ratio_to_float(*self.abs_squared_exact())

    def to_complex(self) -> complex:
        """The value as a Python ``complex`` (floating point).

        ``SQRT2 ** k`` overflows from ``k = 2048``; past that (or when a
        coefficient outgrows the float range) the scale is applied as
        ``2**(k // 2) * SQRT2**(k % 2)`` with :func:`math.ldexp`, after
        shifting huge coefficients down as :func:`sqrt2_ratio_to_float`
        does.  Below it the direct formula stays, bit for bit."""
        a, b, c, d, k = self.a, self.b, self.c, self.d, self.k
        excess = max(a.bit_length(), b.bit_length(), c.bit_length(),
                     d.bit_length()) - _FLOAT_SAFE_BITS
        if k < _DIRECT_SCALE_LIMIT and excess <= 0:
            real = d + (c - a) / SQRT2
            imag = b + (c + a) / SQRT2
            scale = SQRT2 ** k
            return complex(real / scale, imag / scale)
        if excess > 0:
            # Dropping ``excess`` low bits divides by 2**excess = SQRT2**(2*excess).
            a, b, c, d = a >> excess, b >> excess, c >> excess, d >> excess
            k -= 2 * excess
        half, odd = divmod(k, 2)
        real = d + (c - a) / SQRT2
        imag = b + (c + a) / SQRT2
        if odd:
            real, imag = real / SQRT2, imag / SQRT2
        return complex(math.ldexp(real, -half), math.ldexp(imag, -half))

    def coefficients(self) -> Tuple[int, int, int, int, int]:
        """The canonical tuple ``(a, b, c, d, k)``."""
        return (self.a, self.b, self.c, self.d, self.k)

    # ------------------------------------------------------------------ #
    # dunder plumbing
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if isinstance(other, AlgebraicComplex):
            return self.coefficients() == other.coefficients()
        if isinstance(other, (int, complex, float)):
            return cmath.isclose(self.to_complex(), complex(other), abs_tol=1e-12)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coefficients())

    def __repr__(self) -> str:
        return (f"AlgebraicComplex(a={self.a}, b={self.b}, c={self.c}, "
                f"d={self.d}, k={self.k})")

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        terms = []
        for coeff, name in ((self.a, "w^3"), (self.b, "w^2"), (self.c, "w"), (self.d, "")):
            if coeff == 0:
                continue
            if name:
                terms.append(f"{coeff}*{name}" if abs(coeff) != 1 else ("-" + name if coeff < 0 else name))
            else:
                terms.append(str(coeff))
        numerator = " + ".join(terms).replace("+ -", "- ")
        if self.k == 0:
            return numerator
        return f"({numerator})/sqrt(2)^{self.k}"


def _canonicalise(a: int, b: int, c: int, d: int, k: int) -> Tuple[int, int, int, int, int]:
    """Reduce ``(a, b, c, d, k)`` to the canonical representative.

    Factors of ``sqrt(2)`` common to the numerator are cancelled against the
    denominator until either ``k == 0`` or the numerator is no longer
    divisible.  Zero is normalised to all-zero coefficients with ``k == 0``.
    """
    if a == 0 and b == 0 and c == 0 and d == 0:
        return (0, 0, 0, 0, 0)
    while k < 0:
        # Fold sqrt(2) factors of the value into the numerator so the
        # canonical form always has k >= 0.
        a, b, c, d = _poly_mul((a, b, c, d), (-1, 0, 1, 0))
        k += 1
    while k > 0:
        if a % 2 == 0 and b % 2 == 0 and c % 2 == 0 and d % 2 == 0 and k >= 2:
            a //= 2
            b //= 2
            c //= 2
            d //= 2
            k -= 2
            continue
        # Divisibility by sqrt(2) = w - w^3:  p / sqrt(2) = p * (w - w^3) / 2.
        na, nb, nc, nd = _poly_mul((a, b, c, d), (-1, 0, 1, 0))
        if na % 2 == 0 and nb % 2 == 0 and nc % 2 == 0 and nd % 2 == 0:
            a, b, c, d = na // 2, nb // 2, nc // 2, nd // 2
            k -= 1
            continue
        break
    return (a, b, c, d, k)


class AlgebraicVector:
    """A dense, exact state vector over ``n`` qubits.

    Entries are :class:`AlgebraicComplex` amplitudes indexed by basis state,
    with qubit 0 as the most-significant bit of the index (the convention of
    the paper's 2-qubit worked example, ``|q0 q1>``).

    The class supports exact application of every gate in the paper's Table I
    and is used as the *exact oracle* against which the bit-sliced BDD engine
    is validated with integer equality.
    """

    def __init__(self, num_qubits: int, amplitudes: Sequence[AlgebraicComplex]):
        if len(amplitudes) != 1 << num_qubits:
            raise ValueError("amplitude count must be 2**num_qubits")
        self.num_qubits = num_qubits
        self.amplitudes: List[AlgebraicComplex] = list(amplitudes)

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @staticmethod
    def basis_state(num_qubits: int, index: int = 0) -> "AlgebraicVector":
        """The computational basis state ``|index>`` on ``num_qubits`` qubits."""
        if not 0 <= index < (1 << num_qubits):
            raise ValueError("basis index out of range")
        amps = [AlgebraicComplex.zero() for _ in range(1 << num_qubits)]
        amps[index] = AlgebraicComplex.one()
        return AlgebraicVector(num_qubits, amps)

    # ------------------------------------------------------------------ #
    # gate application
    # ------------------------------------------------------------------ #
    def _bit(self, index: int, qubit: int) -> int:
        """Bit value of ``qubit`` in basis ``index`` (qubit 0 = MSB)."""
        return (index >> (self.num_qubits - 1 - qubit)) & 1

    def _flip(self, index: int, qubit: int) -> int:
        return index ^ (1 << (self.num_qubits - 1 - qubit))

    def apply_single_qubit(self, matrix: Sequence[Sequence[AlgebraicComplex]], target: int) -> None:
        """Apply an exact 2x2 matrix to ``target`` in place."""
        n = self.num_qubits
        if not 0 <= target < n:
            raise ValueError("target qubit out of range")
        new = list(self.amplitudes)
        for index in range(1 << n):
            if self._bit(index, target) == 0:
                i0 = index
                i1 = self._flip(index, target)
                a0, a1 = self.amplitudes[i0], self.amplitudes[i1]
                new[i0] = matrix[0][0] * a0 + matrix[0][1] * a1
                new[i1] = matrix[1][0] * a0 + matrix[1][1] * a1
        self.amplitudes = new

    def apply_controlled(self, matrix: Sequence[Sequence[AlgebraicComplex]],
                         controls: Iterable[int], target: int) -> None:
        """Apply an exact 2x2 matrix to ``target`` controlled on all of
        ``controls`` being 1, in place."""
        controls = list(controls)
        n = self.num_qubits
        new = list(self.amplitudes)
        for index in range(1 << n):
            if self._bit(index, target) == 0 and all(self._bit(index, c) for c in controls):
                i0 = index
                i1 = self._flip(index, target)
                a0, a1 = self.amplitudes[i0], self.amplitudes[i1]
                new[i0] = matrix[0][0] * a0 + matrix[0][1] * a1
                new[i1] = matrix[1][0] * a0 + matrix[1][1] * a1
        self.amplitudes = new

    def apply_swap(self, controls: Iterable[int], qubit_a: int, qubit_b: int) -> None:
        """Apply a (controlled) swap of ``qubit_a`` and ``qubit_b`` in place."""
        controls = list(controls)
        new = list(self.amplitudes)
        for index in range(1 << self.num_qubits):
            if not all(self._bit(index, c) for c in controls):
                continue
            ba, bb = self._bit(index, qubit_a), self._bit(index, qubit_b)
            if ba == bb:
                continue
            swapped = self._flip(self._flip(index, qubit_a), qubit_b)
            new[index] = self.amplitudes[swapped]
        self.amplitudes = new

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def to_numpy(self):
        """Return the state as a complex numpy array (float precision)."""
        import numpy as np

        return np.array([amp.to_complex() for amp in self.amplitudes], dtype=complex)

    def probability_of_outcome(self, outcome: int) -> float:
        """``|<outcome|psi>|**2`` as a float."""
        return self.amplitudes[outcome].abs_squared()

    def norm_squared(self) -> float:
        """Sum of all ``|alpha|**2`` (should be 1 for a valid state)."""
        return sum(amp.abs_squared() for amp in self.amplitudes)

    def __len__(self) -> int:
        return len(self.amplitudes)

    def __getitem__(self, index: int) -> AlgebraicComplex:
        return self.amplitudes[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AlgebraicVector):
            return NotImplemented
        return (self.num_qubits == other.num_qubits
                and self.amplitudes == other.amplitudes)

    def __repr__(self) -> str:
        return f"AlgebraicVector(num_qubits={self.num_qubits})"
