import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ietlab.numbers import Quadratic, exact_floor, golden_alpha, is_exact, quad


def test_quad_collapses_to_fraction():
    assert quad(Fraction(1, 2), 0, 5) == Fraction(1, 2)
    # square d collapses: 1/2 + (1/3)*sqrt(9) = 3/2
    assert quad(Fraction(1, 2), Fraction(1, 3), 9) == Fraction(3, 2)


def test_squarefree_reduction():
    x = quad(0, 1, 8)          # sqrt(8) = 2 sqrt(2)
    assert isinstance(x, Quadratic)
    assert x.d == 2 and x.b == 2


def test_golden_alpha_identity():
    a = golden_alpha()
    # alpha = (sqrt(5)-1)/2 satisfies alpha^2 = 1 - alpha
    assert a * a == 1 - a
    assert 0 < a < 1
    assert math.isclose(float(a), (math.sqrt(5) - 1) / 2)


def test_arithmetic_and_division():
    phi = quad(Fraction(1, 2), Fraction(1, 2), 5)
    assert phi * phi == phi + 1
    assert (phi * phi - 1) / phi == 1   # phi - 1/phi = 1
    assert 1 / phi == phi - 1


def test_ordering_is_exact():
    # 2 + sqrt(2) vs 10/3 + tiny: floats would tie-break wrongly nearby
    x = quad(2, 1, 2)
    assert x < Fraction(342, 100)
    assert x > Fraction(341, 100)
    assert quad(0, 2, 2) < quad(0, 3, 2)
    with pytest.raises(ValueError):
        quad(0, 1, 2) < quad(0, 1, 3)   # mixed fields stay out of scope


def test_float_comparisons_are_exact():
    a = golden_alpha()
    f = float(a)
    # a is irrational and every finite float is rational
    assert a != f and f != a and not a == f
    assert len({a, f}) == 2
    for x in (f, math.nextafter(f, 0), math.nextafter(f, 1), 0.5, 0.0, -1.0):
        q = Fraction(x)
        assert ((a < x, a <= x, a == x, a != x, a > x, a >= x)
                == (a < q, a <= q, a == q, a != q, a > q, a >= q))
        assert ((x < a, x <= a, x == a, x != a, x > a, x >= a)
                == (q < a, q <= a, q == a, q != a, q > a, q >= a))


def test_non_finite_floats_do_not_compare():
    a = golden_alpha()
    assert a != math.inf and a != math.nan and not a == math.inf
    with pytest.raises(TypeError):
        a < math.inf
    with pytest.raises(TypeError):
        math.nan >= a


def test_exact_floor():
    assert exact_floor(quad(0, 1, 2)) == 1
    assert exact_floor(quad(0, -1, 2)) == -2
    assert exact_floor(quad(Fraction(7, 2), Fraction(1, 2), 5)) == 4
    assert exact_floor(Fraction(-7, 2)) == -4


def test_is_exact():
    assert is_exact(Fraction(1, 3))
    assert is_exact(2)
    assert is_exact(golden_alpha())
    assert not is_exact(0.5)


def test_hash_consistency():
    x = quad(1, 2, 3)
    y = quad(1, 2, 3)
    assert x == y and hash(x) == hash(y)


@given(st.fractions(max_denominator=50), st.fractions(max_denominator=50))
def test_float_matches_exact(a, b):
    x = quad(a, b, 7)
    assert math.isclose(float(x), float(a) + float(b) * math.sqrt(7),
                        rel_tol=1e-12, abs_tol=1e-12)


@given(st.integers(-20, 20), st.integers(-20, 20),
       st.integers(-20, 20), st.integers(-20, 20))
def test_mul_div_roundtrip(a, b, c, d):
    x = quad(a, b, 5)
    y = quad(c, d, 5)
    if y == 0:
        with pytest.raises(ZeroDivisionError):
            x / y
    else:
        assert (x / y) * y == x
