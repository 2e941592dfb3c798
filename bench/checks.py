"""Reference arithmetic for the benchmark's output checks.

Nothing here calls into ietlab's arithmetic: quadratic numbers are pairs of
Fractions, floors of surds use integer square roots, continued fractions run
on the integer (P, Q) recurrence.  Each check either returns or raises
CheckError with a message saying which property failed.
"""

from __future__ import annotations

import math
from fractions import Fraction


class CheckError(Exception):
    """A program output violates a property the method must have."""


def require(cond, message) -> bool:
    if not cond:
        raise CheckError(message)
    return True


# ---------------------------------------------------------------------------
# numbers a + b*sqrt(d) as (a, b) pairs of Fractions, d fixed by the caller
# ---------------------------------------------------------------------------

def pair(x, d, to_json):
    """Read an exact program scalar through its JSON interchange form."""
    v = to_json(x)
    if isinstance(v, dict):
        require(int(v["d"]) == d, f"scalar in Q(sqrt {v['d']}), expected {d}")
        return Fraction(v["a"]), Fraction(v["b"])
    require(isinstance(v, str), f"float {v!r} where an exact scalar was due")
    return Fraction(v), Fraction(0)


def pmul(x, y, d):
    return (x[0] * y[0] + x[1] * y[1] * d, x[0] * y[1] + x[1] * y[0])


def pdot(row, vec):
    acc = (Fraction(0), Fraction(0))
    for m, v in zip(row, vec):
        acc = (acc[0] + m * v[0], acc[1] + m * v[1])
    return acc


def floor_surd(a: int, b: int, d: int, c: int) -> int:
    """floor((a + b*sqrt(d)) / c) for integers, c > 0, d not a square."""
    r = math.isqrt(b * b * d)            # floor(|b| sqrt d); never exact
    fl = r if b >= 0 else -r - 1
    return (a + fl) // c


def golden_orbit_point(x0: Fraction, k: int):
    """frac(x0 + k*alpha), alpha = (sqrt5 - 1)/2, as an (a, b) pair."""
    p, q = x0.numerator, x0.denominator
    # x0 + k alpha = (2p - kq + kq sqrt5) / (2q)
    fl = floor_surd(2 * p - k * q, k * q, 5, 2 * q)
    return x0 - Fraction(k, 2) - fl, Fraction(k, 2)


# ---------------------------------------------------------------------------
# continued fractions and the Rauzy path of a rotation
# ---------------------------------------------------------------------------

def surd_cf(p: int, q: int, d: int):
    """Regular continued fraction of (p + sqrt d)/q with q | d - p^2, as
    (preperiod quotients, period quotients)."""
    require((d - p * p) % q == 0, "surd not in standard form")
    seen = {}
    quotients = []
    while (p, q) not in seen:
        seen[(p, q)] = len(quotients)
        if q > 0:
            a = (p + math.isqrt(d)) // q
        else:
            a = -((p + math.isqrt(d)) // -q) - 1
        quotients.append(a)
        p = a * q - p
        q = (d - p * p) // q
    start = seen[(p, q)]
    return quotients[:start], quotients[start:]


def rotation_path(ratio, depth: int):
    """Rauzy type tags of the 2-IET (lambda_1, lambda_2) with
    lambda_1/lambda_2 = (p + sqrt d)/q given as ratio = (p, q, d), and its
    (preperiod steps, Rauzy period).

    Induction is the subtractive Euclid algorithm on lambda_1/lambda_2: each
    partial quotient is a run of equal tags, runs alternate b, a, b, ...
    """
    pre, per = surd_cf(*ratio)
    pre_steps = sum(pre)
    period = sum(per) * (2 if len(per) % 2 else 1)
    tags = []
    quotients = list(pre)
    k = 0
    while len(tags) < depth:
        if k == len(quotients):
            quotients.extend(per)
        tags.extend("ba"[k % 2] * quotients[k])
        k += 1
    return "".join(tags[:depth]), pre_steps, period


RAUZY_2 = {"a": ((1, 0), (1, 1)), "b": ((1, 1), (0, 1))}


def mat_mul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col))
                       for col in zip(*b)) for row in a)


def word_product(word):
    acc = ((1, 0), (0, 1))
    for t in word:
        acc = mat_mul(acc, RAUZY_2[t])
    return acc


def pf_bracket_holds_2x2(m, lower: Fraction, upper: Fraction) -> bool:
    """lower <= (tr + sqrt(tr^2 - 4 det))/2 <= upper, decided exactly."""
    (a, b), (c, e) = m
    tr, det = a + e, a * e - b * c
    disc = tr * tr - 4 * det
    lo = 2 * Fraction(lower) - tr       # lower <= root  <=>  lo <= sqrt(disc)
    hi = 2 * Fraction(upper) - tr       # upper >= root  <=>  hi >= sqrt(disc)
    return (lo < 0 or lo * lo <= disc) and hi >= 0 and hi * hi >= disc


def sqrt_rotation_ratio(d: int):
    """lambda_1/lambda_2 = (1 - alpha)/alpha for alpha = sqrt d - isqrt(d),
    which is (s + s^2 - d + sqrt d)/(d - s^2) with s = isqrt(d)."""
    s = math.isqrt(d)
    return s + s * s - d, d - s * s, d


GOLDEN_RATIO = (-1, 2, 5)   # (1 - alpha)/alpha = alpha = (sqrt5 - 1)/2


def check_rotation_verdict(name: str, ratio, depth: int, max_block: int,
                           verdict):
    """True when the verdict agrees with the continued fraction, False for
    the counted failure (StrictlyErgodic expected, something else given)."""
    tags, pre, period = rotation_path(ratio, depth)
    expected_strict = period <= max_block and depth >= pre + 3 * period
    if verdict.status == "StrictlyErgodic":
        w = verdict.certificate.witness
        s, n = w.start, w.block_length
        require(s + 3 * n <= depth and n <= max_block,
                f"{name}: witness {s}+3*{n} outside depth {depth}")
        blocks = [word_product(tags[s + i * n:s + (i + 1) * n])
                  for i in range(3)]
        require(blocks[0] == blocks[1] == blocks[2],
                f"{name}: witness block does not repeat on the Rauzy path")
        require(tuple(map(tuple, w.block_product)) == blocks[0],
                f"{name}: witness product differs from the path product")
        require(all(v > 0 for row in blocks[0] for v in row),
                f"{name}: witness product is not positive")
        pf = verdict.certificate.pf
        require(pf_bracket_holds_2x2(blocks[0], pf.lower_cw, pf.upper_cw),
                f"{name}: PF bracket misses the Perron root")
        return True
    require(verdict.status == "LikelyErgodic",
            f"{name} depth {depth}: status {verdict.status}")
    return not expected_strict


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def surface_parameters(n: int):
    """(genus, boundary components) with 2g + m - 1 = n, g, m >= 1 and
    2 - 2g - m < 0."""
    return [(g, n + 1 - 2 * g) for g in range(1, n + 1)
            if n + 1 - 2 * g >= 1 and 2 - 2 * g - (n + 1 - 2 * g) < 0]


def measure_bound(n: int, flips: bool) -> int:
    return n + 2 if flips else n // 2


def lebesgue_l1(edges, masses) -> float:
    return sum(abs(m - (hi - lo))
               for lo, hi, m in zip(edges, edges[1:], masses))
