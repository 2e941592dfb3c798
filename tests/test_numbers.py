import copy
import decimal
import math
import operator
import pickle
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ietlab.iet import validate
from ietlab.numbers import (MAX_RADICAND, Quadratic, _squarefree_split,
                            as_int, golden_alpha, is_exact, quad)


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
    assert math.floor(quad(0, 1, 2)) == 1
    assert math.floor(quad(0, -1, 2)) == -2
    assert math.floor(quad(Fraction(7, 2), Fraction(1, 2), 5)) == 4
    assert math.floor(Fraction(-7, 2)) == -4


def test_as_int_never_truncates():
    assert [as_int(v) for v in (3, "3", 3.0, Fraction(6, 2), True)] == [
        3, 3, 3, 3, 1]
    for v in (2.5, "2.5", Fraction(5, 2), math.inf, math.nan, [1], None):
        with pytest.raises(ValueError):
            as_int(v)


def test_is_exact():
    assert is_exact(Fraction(1, 3))
    assert is_exact(2)
    assert is_exact(golden_alpha())
    assert not is_exact(0.5)


def test_hash_consistency():
    x = quad(1, 2, 3)
    y = quad(1, 2, 3)
    assert x == y and hash(x) == hash(y)


@pytest.mark.parametrize("args, message", [
    ((-2, 1, 4), "not a squarefree"),     # -2 + sqrt(4) is the rational 0
    ((1, 0, 5), "b == 0"),                # 1, which hashes as the int 1
    ((0, 1, 12), "not a squarefree"),
    ((0, 1, 1), "not a squarefree"),
    ((0, 1, 0), "not a squarefree"),
    ((0, 1, -5), "not a squarefree"),
    ((0, 1, MAX_RADICAND + 1), "exceeds"),
    ((0, 1, 5.5), "not an integer"),
])
def test_constructor_refuses_non_canonical_forms(args, message):
    with pytest.raises(ValueError, match=message):
        Quadratic(*args)


def test_constructor_builds_what_quad_builds():
    for a, b, d in [(Fraction(-1, 2), Fraction(1, 2), 5), (0, 3, 2),
                    (7, Fraction(-2, 9), MAX_RADICAND - 3)]:   # squarefree
        x = Quadratic(a, b, d)
        assert (x.a, x.b, x.d) == (a, b, d)
        assert x == quad(a, b, d) and hash(x) == hash(quad(a, b, d))


@pytest.mark.parametrize("clone", [
    copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
    ids=["copy", "deepcopy", "pickle"])
def test_copies_keep_value_type_and_immutability(clone):
    a = golden_alpha()
    b = clone(a)
    assert type(b) is Quadratic and (b.a, b.b, b.d) == (a.a, a.b, a.d)
    assert b == a and hash(b) == hash(a)
    with pytest.raises(AttributeError):
        b.a = Fraction(0)
    spec = validate((1 - a, a), (2, 1))    # an exact spec copies as well
    assert clone(spec) == spec
    x = Quadratic(Fraction(-10 ** 30, 7), Fraction(3, 10 ** 20), 10 ** 6 + 3)
    y = clone(x)
    assert (y.p, y.r, y.q, y.d) == (x.p, x.r, x.q, x.d)
    assert repr(y) == repr(x) and hash(y) == hash(x)


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


def _parts(x):
    """(a, b) of x = a + b*sqrt(d), for an int, Fraction or Quadratic."""
    return (x.a, x.b) if isinstance(x, Quadratic) else (Fraction(x), 0)


def _textbook_parts(op, x, y, d):
    """The parts (a, b) of x op y by the textbook Fraction formulas."""
    (a, b), (c, e) = _parts(x), _parts(y)
    if op == "+":
        return a + c, b + e
    if op == "-":
        return a - c, b - e
    if op == "*":
        return a * c + b * e * d, a * e + b * c
    norm = c * c - e * e * d          # x / y = x * conj(y) / norm(y)
    return (a * c - b * e * d) / norm, (b * c - a * e) / norm


def _textbook(op, x, y, d):
    """x op y from the textbook formulas, built by quad."""
    return quad(*_textbook_parts(op, x, y, d), d)


def _assert_canonical(got, want, d):
    assert got == want and type(got) is type(want)
    if isinstance(got, Quadratic):
        assert type(got.a) is Fraction and type(got.b) is Fraction
        assert got.b != 0 and got.d == d
        assert (got.a, got.b) == (want.a, want.b)
    else:
        assert type(got) is Fraction


def test_every_operator_builds_the_canonical_result():
    rng = random.Random(11)

    def rational():
        return Fraction(rng.randint(-12, 12), rng.randint(1, 6))

    ops = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv}
    cancelled = 0
    for _ in range(400):
        d = rng.choice((2, 3, 5, 7))
        x = quad(rational(), rng.choice((1, -1)) * Fraction(
            rng.randint(1, 5), rng.randint(1, 4)), d)
        # one operand of each kind; the last cancels x's sqrt(d) part
        for y in (rng.randint(-6, 6), rational(),
                  quad(rational(), rational() or 1, d),
                  quad(rational(), -x.b, d) if rng.random() < 0.5
                  else quad(0, x.b * rng.randint(1, 3), d)):
            for sym, op in ops.items():
                for left, right in ((x, y), (y, x)):   # forward, reflected
                    if sym == "/" and right == 0:
                        with pytest.raises(ZeroDivisionError):
                            op(left, right)
                        continue
                    got = op(left, right)
                    _assert_canonical(got, _textbook(sym, left, right, d), d)
                    cancelled += isinstance(got, Fraction)
        _assert_canonical(-x, quad(-x.a, -x.b, d), d)
        _assert_canonical(abs(x), x if float(x) > 0 else -x, d)
    assert cancelled > 100


def test_opposite_sign_near_ties_compare_exactly():
    # 3 - 2*sqrt(2) = 0.17..., 7 - 5*sqrt(2) = -0.07...: a*a and b*b*d
    # differ by one, so only the sign of a*a - b*b*d decides
    assert quad(3, -2, 2) > 0 and quad(-3, 2, 2) < 0
    assert quad(7, -5, 2) < 0 and quad(-7, 5, 2) > 0
    assert quad(0, -2, 2) > -3 and quad(0, 5, 2) > 7
    assert quad(3, 0, 2) > quad(0, 2, 2) > quad(7, -5, 2) + 2
    assert abs(quad(7, -5, 2)) == quad(-7, 5, 2)


def test_mixed_fields_raise_value_error():
    x, y = quad(1, 1, 2), quad(1, 1, 3)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv,
               operator.eq, operator.lt, operator.ge):
        with pytest.raises(ValueError, match=r"^mixed quadratic fields: "
                           r"sqrt\(2\) vs sqrt\(3\)$"):
            op(x, y)


def _squarefree_split_by_squares(d):
    """The former split: trial division by every p*p <= d."""
    s, d0, p = 1, d, 2
    while p * p <= d0:
        while d0 % (p * p) == 0:
            d0 //= p * p
            s *= p
        p += 1
    return s, d0


def test_squarefree_split_matches_trial_division_by_squares():
    for d in range(1, 10 ** 5 + 1):
        assert _squarefree_split(d) == _squarefree_split_by_squares(d), d
    rng = random.Random(29)
    for _ in range(10):
        d = rng.randint(10 ** 5, 10 ** 12)
        assert _squarefree_split(d) == _squarefree_split_by_squares(d), d


@pytest.mark.parametrize("d, split", [
    (999999999999989, (1, 999999999999989)),            # a prime
    (31622743 * 31622777, (1, 31622743 * 31622777)),    # two primes > cbrt
    (31622743 ** 2, (31622743, 1)),                     # a prime squared
    (2 ** 3 * 3 ** 2 * 9973 ** 2 * 10007, (2 * 3 * 9973, 2 * 10007)),
    (3 ** 2 * 5 * 100003 ** 2, (3 * 100003, 5)),       # square cofactor
    (2 ** 49, (2 ** 24, 2)),
    (MAX_RADICAND, (10 ** 7, 10)),
])
def test_squarefree_split_of_large_radicands(d, split):
    start = time.perf_counter()
    assert _squarefree_split(d) == split
    assert time.perf_counter() - start < 0.5


def test_radicand_above_the_limit_is_refused():
    with pytest.raises(ValueError, match="exceeds"):
        quad(0, 1, MAX_RADICAND + 1)
    with pytest.raises(ValueError, match="exceeds"):
        quad(0, 1, 10 ** 40)
    assert quad(1, 0, 10 ** 40) == 1     # b == 0 never reads d


# -- the integer form against a Fraction-pair reference ----------------------

FIELDS = (2, 3, 5, 7, 10 ** 6 + 3)


def _ref_sign(a, b, d):
    """Sign of a + b*sqrt(d) from Fraction squares alone."""
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sa * sb >= 0:
        return sa or sb
    return sa if a * a > b * b * d else sb


def _ref_floor(a, b, d):
    """floor(a + b*sqrt(d)) in decimal arithmetic wide enough to decide it."""
    digits = 40 + max(len(str(v)) for v in (a.numerator, a.denominator,
                                             b.numerator, b.denominator))
    with decimal.localcontext() as ctx:
        ctx.prec = 2 * digits
        v = (decimal.Decimal(a.numerator) / a.denominator
             + decimal.Decimal(b.numerator) / b.denominator
             * decimal.Decimal(d).sqrt())
        m = int(v.to_integral_value(decimal.ROUND_FLOOR))
        assert min(v - m, m + 1 - v) > decimal.Decimal(10) ** (10 - digits)
    return m


def _assert_pair(got, pair, d):
    """got is the canonical number with parts `pair`: a Quadratic when the
    sqrt(d) part is nonzero, else a Fraction."""
    a, b = pair
    if b:
        assert type(got) is Quadratic and (got.a, got.b, got.d) == (a, b, d)
        assert got.q > 0 and math.gcd(got.p, got.r, got.q) == 1
        assert (got.p, got.r) == (a * got.q, b * got.q)
    else:
        assert type(got) is Fraction and got == a


def _check_against_reference(x, y, d):
    """Every operator, reflected form and comparison of x with y, and the
    unary operations and conversions of x, against the reference."""
    a, b = x.a, x.b
    for twin in (quad(a, b, d), copy.copy(x),
                 pickle.loads(pickle.dumps(x))):
        assert twin == x and hash(twin) == hash(x)
    assert repr(x) == f"({a} + {b}*sqrt({d}))"
    assert float(x) == float(a) + float(b) * math.sqrt(d)
    assert math.floor(x) == _ref_floor(a, b, d)
    _assert_pair(-x, (-a, -b), d)
    _assert_pair(abs(x), (-a, -b) if _ref_sign(a, b, d) < 0 else (a, b), d)
    ops = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv}
    for sym, op in ops.items():
        for left, right in ((x, y), (y, x)):
            if sym == "/" and right == 0:
                with pytest.raises(ZeroDivisionError):
                    op(left, right)
            else:
                _assert_pair(op(left, right),
                             _textbook_parts(sym, left, right, d), d)
    sign = _ref_sign(*_textbook_parts("-", x, y, d), d)
    for op in (operator.lt, operator.le, operator.eq, operator.ne,
               operator.gt, operator.ge):
        assert op(x, y) == op(sign, 0) and op(y, x) == op(0, sign)


_rationals = st.fractions(max_denominator=10 ** 6).filter(
    lambda f: abs(f) < 10 ** 9)


@given(st.sampled_from(FIELDS), _rationals,
       _rationals.filter(lambda f: f != 0),
       st.one_of(st.integers(-10 ** 6, 10 ** 6), _rationals,
                 st.tuples(_rationals, _rationals)))
def test_integer_form_matches_the_fraction_pair_reference(d, a, b, other):
    x = Quadratic(a, b, d)
    y = quad(*other, d) if isinstance(other, tuple) else other
    _check_against_reference(x, y, d)


def test_integer_form_on_a_seeded_corpus():
    rng = random.Random(17)

    def rational():
        size = rng.choice((10, 10 ** 6, 10 ** 30))
        return Fraction(rng.randint(-size, size), rng.randint(1, size))

    for _ in range(600):
        d = rng.choice(FIELDS)
        x = quad(rational(), rational() or 1, d)
        for y in (rng.randint(-9, 9), 0, rational(), quad(rational(),
                                                          rational(), d),
                  quad(rational(), -x.b, d), quad(x.a, rational(), d)):
            _check_against_reference(x, y, d)


def test_integer_floor_on_seeded_values():
    # with float estimates these would need correction steps: p/q reaches
    # 10**30, so a float of it is off by far more than 1
    rng = random.Random(5)
    for _ in range(10 ** 4):
        d = rng.choice(FIELDS)
        big = 10 ** rng.choice((2, 12, 30))
        a = Fraction(rng.randint(-big, big), rng.randint(1, 10 ** 6))
        b = Fraction(rng.choice((1, -1)) * rng.randint(1, big),
                     rng.randint(1, 10 ** 6))
        x = Quadratic(a, b, d)
        assert math.floor(x) == _ref_floor(a, b, d), (a, b, d)


def test_operators_refuse_other_types_as_before():
    g = golden_alpha()
    with pytest.raises(TypeError, match=r"unsupported operand type\(s\) "
                       r"for -: 'float' and 'Quadratic'"):
        1.5 - g
    with pytest.raises(TypeError, match=r'can only concatenate str \(not '
                       r'"Quadratic"\) to str'):
        "x" + g
    # a reflected form never takes a second Quadratic, as Python never
    # asks it to
    for name in ("__rsub__", "__rtruediv__"):
        assert getattr(g, name)(g) is NotImplemented
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__truediv__", "__rtruediv__"):
        assert getattr(g, name)(1.5) is NotImplemented
        assert getattr(g, name)("x") is NotImplemented


def test_quad_refuses_a_zero_radicand():
    with pytest.raises(ValueError, match="^radicand must be positive$"):
        quad(1, 1, 0)


def test_quadratic_does_not_order_with_a_string():
    with pytest.raises(TypeError, match="'<' not supported"):
        golden_alpha() < "x"
