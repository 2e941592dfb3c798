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
from typing import Union

Rational = Union[int, Fraction]
Scalar = Union[int, float, Fraction, "Quadratic"]


def _squarefree_split(d: int) -> tuple[int, int]:
    """Return (s, d0) with d = s*s*d0 and d0 squarefree."""
    s, d0, p = 1, d, 2
    while p * p <= d0:
        while d0 % (p * p) == 0:
            d0 //= p * p
            s *= p
        p += 1
    return s, d0


def quad(a, b, d: int):
    """Build a + b*sqrt(d), collapsing to Fraction when the result is rational."""
    a, b = Fraction(a), Fraction(b)
    if b == 0:
        return a
    if d <= 0:
        raise ValueError("radicand must be positive")
    s, d0 = _squarefree_split(d)
    if d0 == 1:
        return a + b * s
    return Quadratic(a, b * s, d0)


def _by_sign(op):
    """Rich comparison that applies `op` to the sign from `Quadratic._cmp`."""
    def compare(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else op(c, 0)
    return compare


class Quadratic:
    """Number a + b*sqrt(d) in the real quadratic field Q(sqrt(d)).

    Instances are created with squarefree d and b != 0; use :func:`quad`
    as the general constructor.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a: Fraction, b: Fraction, d: int):
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))
        object.__setattr__(self, "d", int(d))

    def __setattr__(self, *args):
        raise AttributeError("Quadratic is immutable")

    # -- coercion ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Quadratic):
            if other.d != self.d:
                raise ValueError("mixed quadratic fields: sqrt(%d) vs sqrt(%d)"
                                 % (self.d, other.d))
            return other
        if isinstance(other, (int, Fraction)):
            return Quadratic(Fraction(other), Fraction(0), self.d)
        return None

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return quad(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return quad(self.a - o.a, self.b - o.b, self.d)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return quad(o.a - self.a, o.b - self.b, self.d)

    def __neg__(self):
        return Quadratic(-self.a, -self.b, self.d)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return quad(self.a * o.a + self.b * o.b * self.d,
                    self.a * o.b + self.b * o.a, self.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # multiply by the conjugate of the divisor
        norm = o.a * o.a - o.b * o.b * self.d
        if norm == 0:
            raise ZeroDivisionError("division by zero quadratic")
        num = self * Quadratic(o.a, -o.b, self.d)
        if isinstance(num, Quadratic):
            return quad(num.a / norm, num.b / norm, self.d)
        return num / norm

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __abs__(self):
        return -self if self._sign() < 0 else self

    # -- order ------------------------------------------------------------

    def _sign(self) -> int:
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 against b^2 d
        if a * a > b * b * self.d:
            return 1 if a > 0 else -1
        if a * a < b * b * self.d:
            return 1 if b > 0 else -1
        return 0  # unreachable for squarefree d > 1, kept for safety

    def _cmp(self, other) -> int:
        """Exact sign of self - other; NotImplemented for other types, NaN
        and the infinities."""
        if isinstance(other, float):
            if not math.isfinite(other):
                return NotImplemented
            other = Fraction(other)
        if isinstance(other, (int, Fraction)):   # no coercion to Quadratic
            return Quadratic(self.a - other, self.b, self.d)._sign()
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        diff = Quadratic(self.a - o.a, self.b - o.b, self.d)
        return diff._sign()

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


def is_exact(x) -> bool:
    return isinstance(x, (int, Fraction, Quadratic))


def exact_floor(x) -> int:
    """Floor of an int, Fraction or Quadratic, computed exactly."""
    if isinstance(x, Quadratic):
        return x.__floor__()
    return math.floor(x)


def golden_alpha() -> Quadratic:
    """(sqrt(5) - 1) / 2, the rotation angle of the golden 2-IET."""
    return Quadratic(Fraction(-1, 2), Fraction(1, 2), 5)
