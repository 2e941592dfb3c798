"""Rotation numbers from 2x2 integer matrix continued fractions.

The fraction evaluated here is

    theta = a_1/c_1 - c_1^{-2} / (d_1/c_1 + a_2/c_2 - c_2^{-2} / (...))

for matrices (a_i b_i; c_i d_i) with determinant +-1.  Convergence is an
empirical outcome: truncations are computed in exact rational arithmetic
and a Cauchy test decides; non-convergent data is reported, not guessed.

Periodic data gives quadratic surds, and modular equivalence of two reals
(an integer Moebius map of determinant +-1 between them) is decided by the
classical tail criterion for regular continued fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (NoRealFixedPoint, PrecisionLoss, RationalFixedPoint,
                     ZeroDenominatorEntry)
from .numbers import Quadratic, exact_floor, is_exact, quad


@dataclass(frozen=True)
class MoebiusMatrix:
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        if det not in (1, -1):
            raise ValueError(f"determinant {det}, expected +-1")

    @classmethod
    def from_rows(cls, rows) -> "MoebiusMatrix":
        (a, b), (c, d) = rows
        return cls(int(a), int(b), int(c), int(d))


@dataclass(frozen=True)
class RotationNumber:
    convergents: tuple[Fraction, ...]
    value: float
    converged: bool
    depth: int


@dataclass(frozen=True)
class QuadraticSurd:
    coefficients: tuple[int, int, int]   # A x^2 + B x + C = 0, A > 0, gcd 1
    root_sign: int                       # which real root: +1 upper, -1 lower
    approx: float

    def root(self):
        a, b, c = self.coefficients
        disc = b * b - 4 * a * c
        return quad(Fraction(-b, 2 * a), Fraction(self.root_sign, 2 * a), disc)


def rotation_number(seq: Sequence[MoebiusMatrix], depth: int = 40,
                    tol: float = 1e-10) -> RotationNumber:
    """Truncations of the matrix continued fraction at increasing depth.

    A sequence shorter than `depth` is extended periodically.  converged is
    set once two successive truncations differ by at most tol.
    """
    mats = [m if isinstance(m, MoebiusMatrix) else MoebiusMatrix.from_rows(m)
            for m in seq]
    if not mats:
        raise ValueError("empty matrix sequence")
    if any(m.c == 0 for m in mats):
        raise ZeroDenominatorEntry("all c entries must be nonzero")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    extended = [mats[i % len(mats)] for i in range(depth)]
    g1 = extended[0]
    # the outermost term y -> a_1/c_1 - c_1^{-2}/y, composed with one tail
    # step per depth; each truncation is this map at the innermost tail
    # d_k/c_k, taken projectively so a zero tail passes through as infinity
    outer = ((Fraction(g1.a, g1.c), Fraction(-1, g1.c * g1.c)),
             (Fraction(1), Fraction(0)))
    convergents = []
    converged = False
    for k, g in enumerate(extended):
        if k:
            outer = _moebius_compose(outer, _tail_step_map(extended[k - 1], g))
        (p, q), (r, s) = outer
        den = r * g.d + s * g.c
        if den == 0:
            continue   # the truncation divides by a zero tail
        convergents.append((p * g.d + q * g.c) / den)
        if len(convergents) >= 2 and abs(convergents[-1] - convergents[-2]) <= tol:
            converged = True
            break
    value = float(convergents[-1]) if convergents else math.nan
    return RotationNumber(tuple(convergents), value, converged,
                          len(convergents))


# ---------------------------------------------------------------------------
# quadratic surds from periodic data
# ---------------------------------------------------------------------------

def _moebius_compose(m1, m2):
    """Compose Moebius maps given as ((p, q), (r, s)) acting by
    y -> (p y + q) / (r y + s), fractions allowed."""
    (p1, q1), (r1, s1) = m1
    (p2, q2), (r2, s2) = m2
    return ((p1 * p2 + q1 * r2, p1 * q2 + q1 * s2),
            (r1 * p2 + s1 * r2, r1 * q2 + s1 * s2))


def _tail_step_map(gj: MoebiusMatrix, gn: MoebiusMatrix):
    """Moebius map y -> d_j/c_j + a_n/c_n - c_n^{-2}/y."""
    a = Fraction(gj.d, gj.c) + Fraction(gn.a, gn.c)
    b = Fraction(-1, gn.c * gn.c)
    return ((a, b), (Fraction(1), Fraction(0)))


def detect_quadratic_surd(block: Sequence[MoebiusMatrix]) -> QuadraticSurd:
    """Exact quadratic surd of the fraction with a periodic matrix block.

    Solves the fixed-point quadratic of the period's tail map and carries the
    attracting root through the outermost term in quadratic-field arithmetic.
    """
    mats = [m if isinstance(m, MoebiusMatrix) else MoebiusMatrix.from_rows(m)
            for m in block]
    if any(m.c == 0 for m in mats):
        raise ZeroDenominatorEntry("all c entries must be nonzero")
    period = len(mats)
    comp = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    for j in range(period):
        comp = _moebius_compose(comp, _tail_step_map(mats[j],
                                                     mats[(j + 1) % period]))
    (p, q), (r, s) = comp
    # fixed point: r x^2 + (s - p) x - q = 0
    if r == 0:
        raise NoRealFixedPoint("tail map is affine, no quadratic fixed point")
    coeff = [r, s - p, -q]
    den = math.lcm(*(f.denominator for f in coeff))
    ai, bi, ci = (int(f * den) for f in coeff)
    disc = bi * bi - 4 * ai * ci
    if disc < 0:
        raise NoRealFixedPoint("negative discriminant")
    if math.isqrt(disc) ** 2 == disc:
        raise RationalFixedPoint("discriminant is a perfect square")
    roots = [quad(Fraction(-bi, 2 * ai), Fraction(sign, 2 * ai), disc)
             for sign in (1, -1)]
    # attracting root: |(d/dy)(py+q)/(ry+s)| = |det|/(ry+s)^2 < 1
    det = p * s - q * r
    tail = None
    for root in roots:
        denom = r * root + s
        deriv = abs(det) / (denom * denom)
        if deriv < 1:
            tail = root
            break
    if tail is None:
        raise NoRealFixedPoint("no attracting real fixed point")
    g1 = mats[0]
    theta = Fraction(g1.a, g1.c) - Fraction(1, g1.c * g1.c) / tail
    if not isinstance(theta, Quadratic):
        raise RationalFixedPoint("rotation number degenerates to a rational")
    # minimal polynomial of theta = u + v sqrt(d)
    u, v, d = theta.a, theta.b, theta.d
    poly = [Fraction(1), -2 * u, u * u - v * v * d]
    den = math.lcm(*(f.denominator for f in poly))
    coeffs = [int(f * den) for f in poly]
    g = math.gcd(*coeffs)
    coeffs = [cf // g for cf in coeffs]
    if coeffs[0] < 0:
        coeffs = [-cf for cf in coeffs]
    return QuadraticSurd(tuple(coeffs), 1 if v > 0 else -1, float(theta))


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
        x = 1 / (x - exact_floor(x))   # an irrational never has frac 0
    raise PrecisionLoss(f"no cycle within {depth} complete quotients")


def _float_quotients(x: float, depth: int, uncertainty: float = 1e-13):
    """Regular CF quotients of a float, stopping once rounding makes the next
    quotient ambiguous."""
    quotients = []
    value = x
    err = max(uncertainty, abs(x) * 1e-15)
    for _ in range(depth):
        lo, hi = value - err, value + err
        if math.floor(lo) != math.floor(hi):
            break
        a = math.floor(value)
        quotients.append(a)
        frac = value - a
        if frac <= err:
            break
        value = 1.0 / frac
        err = err / (frac * frac)
        if err > 0.49:
            break
    return quotients


def modular_equivalent(theta1, theta2, depth: int = 40,
                       tol: float = 1e-13) -> bool:
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
    q1 = _float_quotients(float(theta1), depth, tol)
    q2 = _float_quotients(float(theta2), depth, tol)
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
