"""Unit tests for the exact algebraic complex number representation."""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction

import pytest

from repro.algebra import OMEGA, SQRT2, AlgebraicComplex
from repro.algebra.omega import sqrt2_ratio_to_float


def close(left: complex, right: complex, tol: float = 1e-12) -> bool:
    return abs(left - right) <= tol


class TestConstructors:
    def test_zero_and_one(self):
        assert AlgebraicComplex.zero().is_zero()
        assert AlgebraicComplex.one().to_complex() == 1
        assert not AlgebraicComplex.one().is_zero()

    def test_from_int(self):
        assert AlgebraicComplex.from_int(-7).to_complex() == -7
        assert AlgebraicComplex.from_int(0).is_zero()

    @pytest.mark.parametrize("power", range(-8, 17))
    def test_omega_power_matches_float(self, power):
        exact = AlgebraicComplex.omega_power(power)
        assert close(exact.to_complex(), OMEGA ** power)

    def test_omega_powers_cycle_with_period_eight(self):
        for power in range(8):
            assert AlgebraicComplex.omega_power(power) == AlgebraicComplex.omega_power(power + 8)

    @pytest.mark.parametrize("exponent", range(-4, 5))
    def test_sqrt2_power(self, exponent):
        exact = AlgebraicComplex.sqrt2_power(exponent)
        assert close(exact.to_complex(), SQRT2 ** exponent)

    def test_imaginary_unit(self):
        assert close(AlgebraicComplex.imaginary_unit().to_complex(), 1j)
        assert AlgebraicComplex.imaginary_unit() == AlgebraicComplex.omega_power(2)


class TestCanonicalisation:
    def test_zero_is_normalised(self):
        assert AlgebraicComplex(0, 0, 0, 0, 17) == AlgebraicComplex.zero()
        assert AlgebraicComplex(0, 0, 0, 0, 17).k == 0

    def test_common_factor_of_two_reduces_k(self):
        # 2/sqrt(2)^2 == 1.
        value = AlgebraicComplex(0, 0, 0, 2, 2)
        assert value == AlgebraicComplex.one()
        assert value.coefficients() == (0, 0, 0, 1, 0)

    def test_sqrt2_factor_reduces_k(self):
        # (w - w^3) / sqrt(2) == 1.
        value = AlgebraicComplex(-1, 0, 1, 0, 1)
        assert value == AlgebraicComplex.one()

    def test_irreducible_representation_kept(self):
        value = AlgebraicComplex(0, 0, 0, 1, 1)  # 1/sqrt(2)
        assert value.coefficients() == (0, 0, 0, 1, 1)

    def test_equality_and_hash_are_structural_on_canonical_form(self):
        left = AlgebraicComplex(0, 0, 0, 2, 2)
        right = AlgebraicComplex.one()
        assert left == right
        assert hash(left) == hash(right)


class TestArithmetic:
    values = [
        AlgebraicComplex.zero(),
        AlgebraicComplex.one(),
        AlgebraicComplex.from_int(-3),
        AlgebraicComplex.omega_power(1),
        AlgebraicComplex.omega_power(3),
        AlgebraicComplex(1, -2, 3, -4, 0),
        AlgebraicComplex(1, 0, 1, 1, 3),
        AlgebraicComplex(0, 5, 0, -5, 2),
    ]

    @pytest.mark.parametrize("left", values)
    @pytest.mark.parametrize("right", values)
    def test_addition_matches_floats(self, left, right):
        assert close((left + right).to_complex(), left.to_complex() + right.to_complex())

    @pytest.mark.parametrize("left", values)
    @pytest.mark.parametrize("right", values)
    def test_subtraction_matches_floats(self, left, right):
        assert close((left - right).to_complex(), left.to_complex() - right.to_complex())

    @pytest.mark.parametrize("left", values)
    @pytest.mark.parametrize("right", values)
    def test_multiplication_matches_floats(self, left, right):
        assert close((left * right).to_complex(), left.to_complex() * right.to_complex())

    @pytest.mark.parametrize("value", values)
    def test_negation(self, value):
        assert close((-value).to_complex(), -value.to_complex())
        assert (value + (-value)).is_zero()

    @pytest.mark.parametrize("value", values)
    def test_conjugate(self, value):
        assert close(value.conjugate().to_complex(), value.to_complex().conjugate())

    @pytest.mark.parametrize("value", values)
    def test_divided_by_sqrt2(self, value):
        halved = value.divided_by_sqrt2()
        assert close(halved.to_complex(), value.to_complex() / SQRT2)
        assert close(value.divided_by_sqrt2(4).to_complex(), value.to_complex() / 4)

    def test_integer_multiplication(self):
        value = AlgebraicComplex(1, 2, 3, 4, 1)
        assert (3 * value) == (value * 3)
        assert close((3 * value).to_complex(), 3 * value.to_complex())

    def test_omega_multiplication_is_rotation(self):
        # Multiplying by w eight times returns the original value.
        value = AlgebraicComplex(2, -1, 0, 5, 3)
        rotated = value
        for _ in range(8):
            rotated = rotated * AlgebraicComplex.omega_power(1)
        assert rotated == value


class TestMagnitudes:
    @pytest.mark.parametrize("value", TestArithmetic.values)
    def test_abs_squared_matches_float(self, value):
        assert math.isclose(value.abs_squared(), abs(value.to_complex()) ** 2,
                            rel_tol=1e-12, abs_tol=1e-12)

    @pytest.mark.parametrize("value", TestArithmetic.values)
    def test_abs_squared_exact_consistency(self, value):
        x, y, k = value.abs_squared_exact()
        assert math.isclose((x + y * SQRT2) / 2 ** k, value.abs_squared(),
                            rel_tol=1e-12, abs_tol=1e-12)

    def test_abs_squared_fraction_when_rational(self):
        half = AlgebraicComplex(0, 0, 0, 1, 1)   # 1/sqrt(2)
        assert half.abs_squared_fraction() == Fraction(1, 2)

    def test_abs_squared_fraction_rejects_irrational(self):
        value = AlgebraicComplex(0, 0, 1, 1, 0)  # 1 + w
        with pytest.raises(ValueError):
            value.abs_squared_fraction()

    def test_abs_squared_past_the_float_exponent_range(self):
        # 1/sqrt(2)**1030 squares to 2**-1030, and 2.0 ** 1030 overflows.
        assert AlgebraicComplex(0, 0, 0, 1, 1030).abs_squared() == 2.0 ** -1030
        assert AlgebraicComplex(0, 0, 0, 1, 4000).abs_squared() == 0.0


class TestSqrt2RatioToFloat:
    def test_bit_identical_to_the_direct_formula_where_it_is_finite(self):
        rng = random.Random(20)
        for _ in range(20_000):
            x = rng.getrandbits(rng.choice([8, 53, 60, 300, 1000]))
            y = rng.getrandbits(rng.choice([0, 8, 53, 60, 300, 1000])) * rng.choice([-1, 1])
            k = rng.randrange(0, 1024)
            assert sqrt2_ratio_to_float(x, y, k) == (x + y * SQRT2) / 2.0 ** k

    def test_large_exponents_and_numerators(self):
        assert sqrt2_ratio_to_float(1, 0, 1030) == 2.0 ** -1030
        assert sqrt2_ratio_to_float(0, 1, 1) == SQRT2 / 2
        assert sqrt2_ratio_to_float(1 << 2000, 0, 2001) == 0.5
        huge = sqrt2_ratio_to_float(3 << 1500, 1 << 1500, 1502)
        assert math.isclose(huge, (3 + SQRT2) / 4, rel_tol=1e-15)


class TestToComplex:
    def test_bit_identical_to_the_direct_formula_below_k_2048(self):
        rng = random.Random(21)
        for _ in range(20_000):
            a, b, c, d = (rng.getrandbits(rng.choice([0, 8, 53, 60, 300, 1000]))
                          * rng.choice([-1, 1]) for _ in range(4))
            value = AlgebraicComplex(a, b, c, d, rng.randrange(0, 2048))
            a, b, c, d, k = value.coefficients()
            scale = SQRT2 ** k
            direct = complex((d + (c - a) / SQRT2) / scale, (b + (c + a) / SQRT2) / scale)
            assert value.to_complex() == direct

    def test_exponents_past_2047(self):
        # SQRT2 ** 2048 overflows; 1/sqrt(2)**2048 is 2**-1024 exactly.
        assert AlgebraicComplex(0, 0, 0, 1, 2048).to_complex() == 2.0 ** -1024
        assert AlgebraicComplex(0, 0, 0, 1, 2049).to_complex() == pytest.approx(
            2.0 ** -1024 / SQRT2, rel=1e-15, abs=0.0)
        value = AlgebraicComplex(1, 2, 4, 7, 2050)
        assert value.coefficients() == (1, 2, 4, 7, 2050)
        expected = (7 + 2j + (4 - 1 + (4 + 1) * 1j) / SQRT2) * 2.0 ** -1025
        assert value.to_complex() == pytest.approx(expected, rel=1e-15, abs=0.0)
        assert AlgebraicComplex(0, 0, 0, 1, 6000).to_complex() == 0.0

    def test_coefficients_past_the_float_range(self):
        value = AlgebraicComplex(0, 0, 0, (1 << 1500) + 1, 3004)
        assert value.to_complex() == pytest.approx(2.0 ** -2, rel=1e-15, abs=0.0)


class TestDunder:
    def test_equality_with_python_numbers(self):
        assert AlgebraicComplex.one() == 1
        assert AlgebraicComplex.imaginary_unit() == 1j
        assert AlgebraicComplex(0, 0, 0, 1, 2) == 0.5

    def test_repr_and_str(self):
        value = AlgebraicComplex(1, 0, 0, 0, 3)
        assert "AlgebraicComplex" in repr(value)
        text = str(value)
        assert "w^3" in text and "sqrt(2)^3" in text
        assert str(AlgebraicComplex.zero()) == "0"
        assert str(AlgebraicComplex.one()) == "1"

    def test_unsupported_operand(self):
        with pytest.raises(TypeError):
            _ = AlgebraicComplex.one() + 1.5  # floats are not exact operands
