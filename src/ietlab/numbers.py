"""Exact scalar arithmetic: rationals and numbers in one real quadratic field.

Exact mode stores lengths and orbit points either as `fractions.Fraction`
or as `Quadratic` values a + b*sqrt(d) with rational a, b and a fixed
squarefree d > 1.  Both are immutable, hashable and totally ordered, so
they can be mixed freely with each other and with ints in comparisons,
`bisect` calls and dictionary keys.  A finite float compares with a
`Quadratic` as the rational it is.

A `Quadratic` is stored as ints (p + r*sqrt(d))/q, the form in which
Rauzy induction also runs.  Each operation reads an int or Fraction n/m as
(n, 0, m), applies one integer formula, and each comparison ends in one
sign test, `int_sign`.
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
    b *= s
    return _make(a.numerator * b.denominator, b.numerator * a.denominator,
                 a.denominator * b.denominator, d0)


def _make(p: int, r: int, q: int, d: int):
    """The canonical (p + r*sqrt(d))/q for q != 0: the Fraction p/q when
    r == 0, else a Quadratic in lowest terms with q > 0."""
    if not r:
        return Fraction(p, q)
    return _store(object.__new__(Quadratic), p, r, q, d)


def _store(x: "Quadratic", p: int, r: int, q: int, d: int) -> "Quadratic":
    """Fill x's slots, past the immutability guard, with (p + r*sqrt(d))/q
    divided through by gcd(p, r, q) and with the sign of q."""
    g = math.gcd(p, r, q) if q > 0 else -math.gcd(p, r, q)
    _set_p(x, p // g)
    _set_r(x, r // g)
    _set_q(x, q // g)
    _set_d(x, d)
    return x


def int_sign(p: int, r: int, d: int) -> int:
    """Sign of p + r*sqrt(d) for ints p, r; for squarefree d > 1, p*p ==
    r*r*d only at 0, and d is never read when r == 0."""
    sp, sr = (p > 0) - (p < 0), (r > 0) - (r < 0)
    if sp * sr >= 0:
        return sp or sr
    return sp if p * p > r * r * d else sr   # opposite signs


def _by_sign(op):
    """Rich comparison that applies `op` to the sign from `Quadratic._cmp`."""
    def compare(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else op(c, 0)
    return compare


def _by_formula(formula, quadratic=True):
    """Arithmetic operator from an integer `formula`, which takes self's
    (p, r, q), the other operand's (P, R, Q) and d, and returns the
    result's (p, r, q).  An int or Fraction n/m enters as (n, 0, m).  Other
    types, and a Quadratic when not `quadratic` (the reflected forms), get
    NotImplemented."""
    def operate(self, other):
        if quadratic or not isinstance(other, Quadratic):
            parts = self._parts(other)
            if parts is not None:
                d = self.d
                return _make(*formula(self.p, self.r, self.q, *parts, d), d)
        return NotImplemented
    return operate


class Quadratic:
    """Number (p + r*sqrt(d))/q in the real quadratic field Q(sqrt(d)), for
    ints p, r != 0 and q > 0 with gcd(p, r, q) = 1, and a fixed squarefree
    d > 1; its parts a + b*sqrt(d) are a = p/q and b = r/q.

    The constructor takes the canonical form alone, b != 0 and d squarefree
    in 2..MAX_RADICAND, and raises ValueError on any other; :func:`quad` is
    the general constructor.
    """

    __slots__ = ("p", "r", "q", "d")

    def __init__(self, a: Fraction, b: Fraction, d: int):
        a, b, d = Fraction(a), Fraction(b), as_int(d)
        if not b:
            raise ValueError("b == 0: a rational is a Fraction")
        if d < 2 or _squarefree_split(d)[0] != 1:
            raise ValueError(f"radicand {d} is not a squarefree int above 1")
        _store(self, a.numerator * b.denominator, b.numerator * a.denominator,
               a.denominator * b.denominator, d)

    @property
    def a(self) -> Fraction:
        return Fraction(self.p, self.q)

    @property
    def b(self) -> Fraction:
        return Fraction(self.r, self.q)

    def __reduce__(self):   # copy and pickle past the immutability guard
        return _make, (self.p, self.r, self.q, self.d)

    def __setattr__(self, *args):
        raise AttributeError("Quadratic is immutable")

    def _parts(self, other):
        """other as (p, r, q) in this field; None for other types."""
        if isinstance(other, Quadratic):
            if other.d != self.d:
                raise ValueError("mixed quadratic fields: sqrt(%d) vs sqrt(%d)"
                                 % (self.d, other.d))
            return other.p, other.r, other.q
        if isinstance(other, int):
            return other, 0, 1
        if isinstance(other, Fraction):
            return other.numerator, 0, other.denominator
        return None

    # -- arithmetic -------------------------------------------------------
    # a divisor 0 leaves r == q == 0, so Fraction(0, 0) raises
    # ZeroDivisionError

    __add__ = __radd__ = _by_formula(lambda p, r, q, P, R, Q, d: (
        p * Q + P * q, r * Q + R * q, q * Q))
    __sub__ = _by_formula(lambda p, r, q, P, R, Q, d: (
        p * Q - P * q, r * Q - R * q, q * Q))
    __rsub__ = _by_formula(lambda p, r, q, P, R, Q, d: (
        P * q - p * Q, -r * Q, q * Q), quadratic=False)
    __mul__ = __rmul__ = _by_formula(lambda p, r, q, P, R, Q, d: (
        p * P + r * R * d, p * R + r * P, q * Q))
    # times the conjugate of the divisor over its norm
    __truediv__ = _by_formula(lambda p, r, q, P, R, Q, d: (
        Q * (p * P - r * R * d), Q * (r * P - p * R), q * (P * P - R * R * d)))
    __rtruediv__ = _by_formula(lambda p, r, q, P, R, Q, d: (
        q * P * p, -q * P * r, Q * (p * p - r * r * d)), quadratic=False)

    def __neg__(self):
        return _make(-self.p, -self.r, self.q, self.d)

    def __abs__(self):
        return -self if int_sign(self.p, self.r, self.d) < 0 else self

    # -- order ------------------------------------------------------------

    def _cmp(self, other) -> int:
        """Exact sign of self - other; NotImplemented for other types, NaN
        and the infinities."""
        if isinstance(other, float):
            if not math.isfinite(other):
                return NotImplemented
            other = Fraction(other)
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        P, R, Q = parts
        return int_sign(self.p * Q - P * self.q, self.r * Q - R * self.q,
                        self.d)

    __eq__ = _by_sign(operator.eq)
    __ne__ = _by_sign(operator.ne)
    __lt__ = _by_sign(operator.lt)
    __le__ = _by_sign(operator.le)
    __gt__ = _by_sign(operator.gt)
    __ge__ = _by_sign(operator.ge)

    def __hash__(self):   # the canonical form keeps it consistent with ==
        return hash((self.p, self.r, self.q, self.d))

    # -- conversions ------------------------------------------------------

    def __float__(self) -> float:
        # int true division rounds correctly, as float(Fraction) does
        return self.p / self.q + self.r / self.q * math.sqrt(self.d)

    def __floor__(self) -> int:
        # |r|*sqrt(d) is irrational, so it lies strictly between s and s + 1
        s = math.isqrt(self.r * self.r * self.d)
        if self.r > 0:
            return (self.p + s) // self.q
        return (self.p - s - 1) // self.q

    def __repr__(self):
        return f"({self.a} + {self.b}*sqrt({self.d}))"


# slot setters past the immutability guard, for _store
_set_p, _set_r, _set_q, _set_d = (s.__set__ for s in (
    Quadratic.p, Quadratic.r, Quadratic.q, Quadratic.d))


def is_exact(x) -> bool:
    return isinstance(x, (int, Fraction, Quadratic))


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
