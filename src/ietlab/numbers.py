"""Exact scalar arithmetic: rationals and numbers in one real quadratic field.

Exact mode stores lengths and orbit points either as `fractions.Fraction`
or as `Quadratic` values a + b*sqrt(d) with rational a, b and a fixed
squarefree d > 1.  Both are immutable, hashable and totally ordered, so
they can be mixed freely with each other and with ints in comparisons,
`bisect` calls and dictionary keys.  A finite float compares with a
`Quadratic` as the rational it is.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction


MAX_RADICAND = 10 ** 15   # factored by at most about 5e4 trial divisions


def _squarefree_split(d: int) -> tuple[int, int]:
    """Return (s, d0) with d = s*s*d0 and d0 squarefree, for 0 < d <=
    MAX_RADICAND.

    Trial division takes out every p with p**3 <= rest, the part of d not
    yet factored.  The rest left then has no prime factor below p and is
    less than p**3, so it is 1, a prime, a product of two primes or the
    square of a prime, and only the last is a square."""
    if d > MAX_RADICAND:
        raise ValueError(f"radicand {d} exceeds {MAX_RADICAND}")
    s, d0, rest, p = 1, 1, d, 2
    while p * p * p <= rest:
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                d0 *= p
        p += 1 if p == 2 else 2
    r = math.isqrt(rest)
    if r > 1 and r * r == rest:
        return s * r, d0
    return s, d0 * rest


def quad(a, b, d: int):
    """Build a + b*sqrt(d), collapsing to Fraction when the result is
    rational.  With b != 0, a radicand d <= 0 or above MAX_RADICAND raises
    ValueError."""
    a, b = Fraction(a), Fraction(b)
    if b == 0:
        return a
    if d <= 0:
        raise ValueError("radicand must be positive")
    s, d0 = _squarefree_split(d)
    if d0 == 1:
        return a + b * s
    return _field(a, b * s, d0)


def _field(a: Fraction, b: Fraction, d: int):
    """The canonical a + b*sqrt(d): the Fraction a when b == 0."""
    if not b:
        return a
    x = object.__new__(Quadratic)
    _set_a(x, a)
    _set_b(x, b)
    _set_d(x, d)
    return x


def int_sign(p: int, r: int, d: int) -> int:
    """Sign of p + r*sqrt(d) for ints p, r; for squarefree d > 1, p*p ==
    r*r*d only at 0, and d is never read when r == 0."""
    sp, sr = (p > 0) - (p < 0), (r > 0) - (r < 0)
    if sp * sr >= 0:
        return sp or sr
    return sp if p * p > r * r * d else sr   # opposite signs


def _sign(a: Fraction, b: Fraction, d: int) -> int:
    """Sign of a + b*sqrt(d), read from its multiple by both (positive)
    denominators."""
    return int_sign(a.numerator * b.denominator, b.numerator * a.denominator,
                    d)


def _by_sign(op):
    """Rich comparison that applies `op` to the sign from `Quadratic._cmp`."""
    def compare(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else op(c, 0)
    return compare


class Quadratic:
    """Number a + b*sqrt(d) in the real quadratic field Q(sqrt(d)).

    The constructor takes the canonical form alone, b != 0 and d squarefree
    in 2..MAX_RADICAND, and raises ValueError on any other; :func:`quad` is
    the general constructor.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a: Fraction, b: Fraction, d: int):
        a, b, d = Fraction(a), Fraction(b), as_int(d)
        if not b:
            raise ValueError("b == 0: a rational is a Fraction")
        if d < 2 or _squarefree_split(d)[0] != 1:
            raise ValueError(f"radicand {d} is not a squarefree int above 1")
        _set_a(self, a)
        _set_b(self, b)
        _set_d(self, d)

    def __reduce__(self):   # copy and pickle past the immutability guard
        return _field, (self.a, self.b, self.d)

    def __setattr__(self, *args):
        raise AttributeError("Quadratic is immutable")

    def _d(self, other: "Quadratic") -> int:
        if other.d != self.d:
            raise ValueError("mixed quadratic fields: sqrt(%d) vs sqrt(%d)"
                             % (self.d, other.d))
        return self.d

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Quadratic):
            return _field(self.a + other.a, self.b + other.b, self._d(other))
        if isinstance(other, (int, Fraction)):
            return _field(self.a + other, self.b, self.d)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Quadratic):
            return _field(self.a - other.a, self.b - other.b, self._d(other))
        if isinstance(other, (int, Fraction)):
            return _field(self.a - other, self.b, self.d)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return _field(other - self.a, -self.b, self.d)
        return NotImplemented

    def __neg__(self):
        return _field(-self.a, -self.b, self.d)

    def __mul__(self, other):
        if isinstance(other, Quadratic):
            d = self._d(other)
            return _field(self.a * other.a + self.b * other.b * d,
                          self.a * other.b + self.b * other.a, d)
        if isinstance(other, (int, Fraction)):
            return _field(self.a * other, self.b * other, self.d)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Quadratic):
            # times the conjugate of the divisor over its nonzero norm
            d, (c, e) = self._d(other), (other.a, other.b)
            norm = c * c - e * e * d
            return _field((self.a * c - self.b * e * d) / norm,
                          (self.b * c - self.a * e) / norm, d)
        if isinstance(other, (int, Fraction)):
            return _field(self.a / other, self.b / other, self.d)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            k = other / (self.a * self.a - self.b * self.b * self.d)
            return _field(k * self.a, -k * self.b, self.d)
        return NotImplemented

    def __abs__(self):
        return -self if _sign(self.a, self.b, self.d) < 0 else self

    # -- order ------------------------------------------------------------

    def _cmp(self, other) -> int:
        """Exact sign of self - other; NotImplemented for other types, NaN
        and the infinities."""
        if isinstance(other, float):
            if not math.isfinite(other):
                return NotImplemented
            other = Fraction(other)
        if isinstance(other, (int, Fraction)):
            return _sign(self.a - other, self.b, self.d)
        if isinstance(other, Quadratic):
            return _sign(self.a - other.a, self.b - other.b, self._d(other))
        return NotImplemented

    __eq__ = _by_sign(operator.eq)
    __ne__ = _by_sign(operator.ne)
    __lt__ = _by_sign(operator.lt)
    __le__ = _by_sign(operator.le)
    __gt__ = _by_sign(operator.gt)
    __ge__ = _by_sign(operator.ge)

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    # -- conversions ------------------------------------------------------

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def __floor__(self) -> int:
        # start from the float estimate and correct with exact comparisons
        m = math.floor(float(self))
        while self._cmp(m) < 0:
            m -= 1
        while self._cmp(m + 1) >= 0:
            m += 1
        return m

    def __repr__(self):
        return f"({self.a} + {self.b}*sqrt({self.d}))"


# slot setters past the immutability guard, for _field and the constructor
_set_a, _set_b, _set_d = (s.__set__ for s in (Quadratic.a, Quadratic.b,
                                              Quadratic.d))


def is_exact(x) -> bool:
    return isinstance(x, (int, Fraction, Quadratic))


def exact_floor(x) -> int:
    """Floor of an int, Fraction or Quadratic, computed exactly."""
    return math.floor(x)     # a Quadratic floors through __floor__


def as_int(v) -> int:
    """v as an int, never truncated: 2.5, inf or a list raises ValueError,
    as does a string that is not an integer literal."""
    try:
        n = int(v)
    except (OverflowError, TypeError):
        n = None
    if n is None or not isinstance(v, str) and n != v:
        raise ValueError(f"{v!r} is not an integer")
    return n


def golden_alpha() -> Quadratic:
    """(sqrt(5) - 1) / 2, the rotation angle of the golden 2-IET."""
    return Quadratic(Fraction(-1, 2), Fraction(1, 2), 5)
