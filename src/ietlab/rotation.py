"""Rotation numbers from 2x2 integer matrix continued fractions.

The fraction evaluated here is

    theta = a_1/c_1 - c_1^{-2} / (d_1/c_1 + a_2/c_2 - c_2^{-2} / (...))

for matrices (a_i b_i; c_i d_i) with determinant +-1.  Its i-th term
y -> a_i/c_i - c_i^{-2} / (y + d_i/c_i) is the Moebius map of the integer
term matrix h_i = (a_i c_i, a_i d_i - 1; c_i^2, c_i d_i), so the fraction
is the action of the product h_1 h_2 ..., as regular continued fractions
are read from matrix products: truncation k is q/s for the product
H_k = h_1 ... h_k = (p q; r s), its image of 0.  Convergence is an
empirical outcome: truncations are exact rationals and a Cauchy test
decides; non-convergent data is reported, not guessed.

Periodic data gives quadratic surds.  theta is then the attracting fixed
point of the period's product (p q; r s), whose determinant prod c_i^2 is
positive: the root of r x^2 + (s - p) x - q = 0 at which the eigenvalue
r x + s has the larger modulus, that is (p - s + sign(p + s) sqrt(disc))
/ 2r.  The primitive form of (r, s - p, -q) is its minimal polynomial, and
only the root itself is built in quadratic-field arithmetic.

Modular equivalence of two reals (an integer Moebius map of determinant
+-1 between them) is decided by the classical tail criterion for regular
continued fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from . import intmat
from .errors import (IETLabError, NoRealFixedPoint, PrecisionLoss,
                     RationalFixedPoint, ZeroDenominatorEntry)
from .intmat import IntMatrix
from .numbers import Quadratic, as_int, is_exact, quad

QUOTIENT_FLOAT_TOL = 1e-13   # least uncertainty of a float's CF quotients
CF_DEPTH = 40                # truncations of `rotation_number`


class _MoebiusEntries(NamedTuple):
    a: int
    b: int
    c: int
    d: int


class MoebiusMatrix(_MoebiusEntries):
    """The matrix (a b; c d), of determinant +-1."""
    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int, d: int):
        det = a * d - b * c
        if det not in (1, -1):
            raise ValueError(f"determinant {det}, expected +-1")
        return super().__new__(cls, a, b, c, d)

    @classmethod
    def _make(cls, iterable):   # `_replace` builds through here: check it too
        return cls(*iterable)

    @classmethod
    def from_rows(cls, rows) -> "MoebiusMatrix":
        _check_2x2(rows)
        (a, b), (c, d) = rows
        return cls(as_int(a), as_int(b), as_int(c), as_int(d))


def _check_2x2(rows) -> None:
    if (len(rows), *map(len, rows)) != (2, 2, 2):
        raise IETLabError("rotation numbers need 2x2 matrices")


class RotationNumber(NamedTuple):
    convergents: tuple[Fraction, ...]
    value: float
    converged: bool
    depth: int


class QuadraticSurd(NamedTuple):
    coefficients: tuple[int, int, int]   # A x^2 + B x + C = 0, A > 0, gcd 1
    root_sign: int                       # which real root: +1 upper, -1 lower
    approx: float

    def root(self):
        return _root(self.coefficients, self.root_sign)


def _root(coefficients, root_sign):
    a, b, c = coefficients
    disc = b * b - 4 * a * c
    return quad(Fraction(-b, 2 * a), Fraction(root_sign, 2 * a), disc)


def _float(x, what: str) -> float:
    """float(x), refused beyond the float range."""
    try:
        return float(x)
    except OverflowError:
        raise PrecisionLoss(f"{what} beyond the float range") from None


def _term_matrices(seq: Sequence) -> list[IntMatrix]:
    """The integer matrix (ac, ad - 1; c^2, cd) of each term
    y -> a/c - c^{-2} / (y + d/c) of the fraction; every shape is checked
    before any determinant."""
    for m in seq:
        if not isinstance(m, MoebiusMatrix):
            _check_2x2(m)
    mats = [m if isinstance(m, MoebiusMatrix) else MoebiusMatrix.from_rows(m)
            for m in seq]
    if any(m.c == 0 for m in mats):
        raise ZeroDenominatorEntry("all c entries must be nonzero")
    return [((m.a * m.c, m.a * m.d - 1), (m.c * m.c, m.c * m.d))
            for m in mats]


def rotation_number(seq: Sequence[MoebiusMatrix], depth: int = CF_DEPTH,
                    tol: float = 1e-10) -> RotationNumber:
    """Truncations of the matrix continued fraction at increasing depth.

    A sequence shorter than `depth` is extended periodically.  converged is
    set once two successive truncations differ by at most tol.
    """
    terms = _term_matrices(seq)
    if not terms:
        raise ValueError("empty matrix sequence")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    product = intmat.identity(2)
    convergents = []
    converged = False
    for k in range(depth):
        product = intmat.mat_mul(product, terms[k % len(terms)])
        (_, q), (_, s) = product
        if s == 0:
            continue   # the truncation divides by a zero tail
        convergents.append(Fraction(q, s))
        if len(convergents) >= 2 and abs(convergents[-1] - convergents[-2]) <= tol:
            converged = True
            break
    value = (_float(convergents[-1], "rotation number") if convergents
             else math.nan)
    return RotationNumber(tuple(convergents), value, converged,
                          len(convergents))


def detect_quadratic_surd(block: Sequence[MoebiusMatrix]) -> QuadraticSurd:
    """Exact quadratic surd of the fraction with a periodic matrix block:
    the attracting fixed point of the period's product of term matrices."""
    terms = _term_matrices(block)
    if terms:
        (p, q), (r, s) = intmat.product(terms)
        (a1, _), (c1, _) = terms[0]
    # the tail behind the first term is the product conjugated by that
    # term's y -> a_1/c_1 - c_1^{-2}/y, so it is affine (fixes infinity)
    # exactly when the product fixes a_1/c_1; an empty tail is the identity
    if not terms or r * a1 * a1 + (s - p) * a1 * c1 - q * c1 * c1 == 0:
        raise NoRealFixedPoint("tail map is affine, no quadratic fixed point")
    disc = (s - p) ** 2 + 4 * r * q
    if disc < 0:
        raise NoRealFixedPoint("negative discriminant")
    if math.isqrt(disc) ** 2 == disc:
        raise RationalFixedPoint("discriminant is a perfect square")
    # r != 0 here: r == 0 leaves disc = (s - p)^2; and p + s != 0, as
    # (p + s)^2 - disc is 4 det > 0
    g = math.gcd(r, s - p, q) * (1 if r > 0 else -1)
    coefficients = (r // g, (s - p) // g, -q // g)
    root_sign = 1 if (p + s > 0) == (r > 0) else -1
    return QuadraticSurd(coefficients, root_sign,
                         _float(_root(coefficients, root_sign),
                                "quadratic surd"))


# ---------------------------------------------------------------------------
# modular equivalence
# ---------------------------------------------------------------------------

def _exact_cycle_set(x, depth: int) -> frozenset:
    """Eventually periodic cycle of complete quotients of the regular CF of
    an exact number; empty for rationals (finite expansion)."""
    if not isinstance(x, Quadratic):
        return frozenset()   # rational: the expansion terminates
    seen: dict = {}          # complete quotient -> its index
    for k in range(depth):
        if x in seen:
            return frozenset(list(seen)[seen[x]:])
        seen[x] = k
        x = 1 / (x - math.floor(x))   # an irrational never has frac 0
    raise PrecisionLoss(f"no cycle within {depth} complete quotients")


def _float_quotients(x: float, depth: int):
    """Regular CF quotients of a float, stopping once rounding makes the next
    quotient ambiguous."""
    quotients = []
    value = x
    err = max(QUOTIENT_FLOAT_TOL, abs(x) * 1e-15)
    for _ in range(depth):
        lo, hi = value - err, value + err
        if math.floor(lo) != math.floor(hi):
            break
        a = math.floor(value)
        quotients.append(a)
        frac = value - a
        value = 1.0 / frac
        err = err / (frac * frac)
        if err > 0.49:
            break
    return quotients


def modular_equivalent(theta1, theta2, depth: int = 40) -> bool:
    """True iff the regular continued fractions of the two reals have
    eventually coinciding tails.

    Exact inputs (Fraction / Quadratic) are decided exactly: two rationals
    are always equivalent, a rational and an irrational never are, and two
    quadratic surds are equivalent iff their complete-quotient cycles meet.
    Floats fall back to comparing the stable quotient tails.
    """
    if depth < 5:
        raise ValueError("depth must be >= 5")
    if is_exact(theta1) and is_exact(theta2):
        c1 = _exact_cycle_set(theta1, depth)
        c2 = _exact_cycle_set(theta2, depth)
        if not c1 and not c2:
            return True            # two rationals
        return bool(c1 & c2)
    q1 = _float_quotients(float(theta1), depth)
    q2 = _float_quotients(float(theta2), depth)
    if len(q1) < 5 or len(q2) < 5:
        raise PrecisionLoss("fewer than 5 stable partial quotients")
    # tails coincide: some suffix of one matches a suffix of the other
    min_overlap = 3
    for i in range(len(q1) - min_overlap):
        for j in range(len(q2) - min_overlap):
            k = min(len(q1) - i, len(q2) - j)
            if q1[i:i + k] == q2[j:j + k]:
                return True
    return False
