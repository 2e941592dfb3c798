import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ietlab import errors
from ietlab.numbers import golden_alpha, quad
from ietlab.rotation import (MoebiusMatrix, QuadraticSurd,
                             detect_quadratic_surd, modular_equivalent,
                             rotation_number)

FIB = ((2, 1), (1, 1))
PHI = quad(Fraction(1, 2), Fraction(1, 2), 5)


def test_moebius_matrix_determinant():
    MoebiusMatrix(2, 1, 1, 1)
    MoebiusMatrix(0, 1, 1, 0)
    with pytest.raises(ValueError):
        MoebiusMatrix(2, 0, 0, 1)


def test_rotation_number_golden():
    rn = rotation_number([FIB])
    assert rn.converged
    assert abs(rn.value - (1 + math.sqrt(5)) / 2) < 1e-10
    # convergents are ratios of consecutive Fibonacci numbers
    assert rn.convergents[0] == 1
    assert rn.convergents[1] == Fraction(3, 2)
    assert rn.convergents[2] == Fraction(8, 5)


def test_rotation_number_exact_convergents():
    rn = rotation_number([FIB], depth=6, tol=0)
    assert not rn.converged                     # tol=0 is never reached
    assert rn.convergents[-1] == Fraction(144, 89)


def test_rotation_number_without_a_truncation_is_nan():
    # d = 0: the one truncation at depth 1 divides by a zero tail
    rn = rotation_number([((1, 1), (1, 0))], depth=1)
    assert rn.convergents == () and math.isnan(rn.value)
    assert not rn.converged and rn.depth == 0


def test_rotation_number_cycles_short_sequences():
    # one period of data, extended periodically
    a = rotation_number([FIB, ((3, 1), (2, 1))], depth=30)
    assert a.converged
    assert a.depth > 2


def _inside_out_convergents(rows, depth):
    """Each truncation evaluated from its innermost tail d_k/c_k outwards,
    tail_j = d_j/c_j + a_{j+1}/c_{j+1} - c_{j+1}^-2 / tail_{j+1}, with None
    for an infinite tail; a truncation that divides by a zero tail is left
    out."""
    mats = [rows[i % len(rows)] for i in range(depth)]
    out = []
    for k in range(1, depth + 1):
        (_, _), (c, d) = mats[k - 1]
        tail = Fraction(d, c)
        for j in range(k - 2, -1, -1):
            (_, _), (cj, dj) = mats[j]
            (an, _), (cn, _) = mats[j + 1]
            if tail == 0:
                tail = None
            else:
                inv = Fraction(0) if tail is None else 1 / tail
                tail = Fraction(dj, cj) + Fraction(an, cn) - inv / (cn * cn)
        (a1, _), (c1, _) = mats[0]
        if tail == 0:
            continue
        inv = Fraction(0) if tail is None else 1 / tail
        out.append(Fraction(a1, c1) - inv / (c1 * c1))
    return out


def test_rotation_number_matches_inside_out_reference():
    rng = random.Random(17)

    def unimodular():
        while True:
            a, b, c, d = (rng.randint(-4, 4) for _ in range(4))
            if c != 0 and a * d - b * c in (1, -1):
                return ((a, b), (c, d))

    # d = 0: the innermost tail of the first truncation is zero
    cases = [[((1, 1), (1, 0))], [((1, 1), (1, 0)), FIB]]
    cases += [[unimodular() for _ in range(rng.randint(1, 4))]
              for _ in range(150)]
    skipped = 0
    for rows in cases:
        depth = rng.randint(1, 25)
        rn = rotation_number(rows, depth=depth, tol=0)
        ref = _inside_out_convergents(rows, depth)
        assert rn.convergents == tuple(ref[:len(rn.convergents)])
        if not rn.converged:    # tol=0 stops only on two equal convergents
            assert len(rn.convergents) == len(ref)
        skipped += len(ref) < depth
    assert skipped > 0


@pytest.mark.parametrize("call, rows", [
    (rotation_number, [((2.5, 1), (1, 1))]),
    (detect_quadratic_surd, [((2.9, 1.2), (1, 1))]),
])
def test_non_integral_entries_raise_value_error(call, rows):
    # never truncated and run as [[2, 1], [1, 1]]
    with pytest.raises(ValueError, match="is not an integer"):
        call(rows)


def test_rotation_number_rejects_zero_c():
    with pytest.raises(errors.ZeroDenominatorEntry):
        rotation_number([((1, 0), (0, 1))])


def test_quadratic_surd_golden():
    surd = detect_quadratic_surd([FIB])
    assert surd.coefficients == (1, -1, -1)     # x^2 - x - 1
    root = surd.root()
    assert root * root - root - 1 == 0          # exact field arithmetic
    assert root == PHI
    assert abs(surd.approx - float(PHI)) < 1e-12


def test_quadratic_surd_matches_limit():
    mats = [((3, 1), (2, 1)), ((1, 1), (1, 2))]
    rn = rotation_number(mats, depth=60, tol=1e-14)
    surd = detect_quadratic_surd(mats)
    assert abs(surd.approx - rn.value) < 1e-10
    a, b, c = surd.coefficients
    x = surd.root()
    assert a * x * x + b * x + c == 0


def _tail_composition_surd(rows):
    """The surd by the tail map: compose y -> d_j/c_j + a_{j+1}/c_{j+1} -
    c_{j+1}^-2/y over one period in Fractions, take its attracting fixed
    point in field arithmetic, carry it through the first term and rebuild
    the minimal polynomial from the result."""
    def compose(m1, m2):
        (p1, q1), (r1, s1) = m1
        (p2, q2), (r2, s2) = m2
        return ((p1 * p2 + q1 * r2, p1 * q2 + q1 * s2),
                (r1 * p2 + s1 * r2, r1 * q2 + s1 * s2))

    mats = [MoebiusMatrix.from_rows(m) for m in rows]
    if any(m.c == 0 for m in mats):
        raise errors.ZeroDenominatorEntry("all c entries must be nonzero")
    comp = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    for j, gj in enumerate(mats):
        gn = mats[(j + 1) % len(mats)]
        step = ((Fraction(gj.d, gj.c) + Fraction(gn.a, gn.c),
                 Fraction(-1, gn.c * gn.c)), (Fraction(1), Fraction(0)))
        comp = compose(comp, step)
    (p, q), (r, s) = comp
    if r == 0:
        raise errors.NoRealFixedPoint(
            "tail map is affine, no quadratic fixed point")
    coeff = [r, s - p, -q]
    den = math.lcm(*(f.denominator for f in coeff))
    ai, bi, ci = (int(f * den) for f in coeff)
    disc = bi * bi - 4 * ai * ci
    if disc < 0:
        raise errors.NoRealFixedPoint("negative discriminant")
    if math.isqrt(disc) ** 2 == disc:
        raise errors.RationalFixedPoint("discriminant is a perfect square")
    det = p * s - q * r
    # attracting: |(d/dy)(py+q)/(ry+s)| = |det|/(ry+s)^2 < 1
    tail = next(x for x in (quad(Fraction(-bi, 2 * ai), Fraction(sign, 2 * ai),
                                 disc) for sign in (1, -1))
                if abs(det) / ((r * x + s) * (r * x + s)) < 1)
    g1 = mats[0]
    theta = Fraction(g1.a, g1.c) - Fraction(1, g1.c * g1.c) / tail
    u, v, d = theta.a, theta.b, theta.d
    poly = [Fraction(1), -2 * u, u * u - v * v * d]
    den = math.lcm(*(f.denominator for f in poly))
    coeffs = [int(f * den) for f in poly]
    g = math.gcd(*coeffs)
    return (tuple(cf // g for cf in coeffs), 1 if v > 0 else -1, float(theta))


def _outcome(call, rows):
    try:
        surd = call(rows)
    except errors.IETLabError as exc:
        return type(exc), str(exc)
    if not isinstance(surd, QuadraticSurd):   # the reference's plain tuple
        return surd
    assert {type(x) for x in surd.coefficients} == {int}
    assert type(surd.root_sign) is int and type(surd.approx) is float
    return surd.coefficients, surd.root_sign, surd.approx


def test_quadratic_surd_matches_tail_composition_reference():
    rng = random.Random(23)

    def unimodular(lo, hi):
        while True:
            a, b, c, d = (rng.randint(lo, hi) for _ in range(4))
            if c != 0 and a * d - b * c in (1, -1):
                return ((a, b), (c, d))

    cases = [[],                                     # empty: no tail at all
             [((1, 0), (1, 1)), ((3, -2), (-1, 1))],  # affine tail map
             [((2, -1), (-1, 0))],                   # square discriminant
             [((2, -1), (3, -1))],                   # negative discriminant
             [FIB], [((3, 1), (2, 1)), ((1, 1), (1, 2))]]
    cases += [[unimodular(-6, 6) for _ in range(rng.randint(1, 4))]
              for _ in range(2000)]
    assert any(a * d - b * c == -1 and abs(c) > 1
               for rows in cases for (a, b), (c, d) in rows)
    kinds = set()
    for rows in cases:
        got = _outcome(detect_quadratic_surd, rows)
        assert got == _outcome(_tail_composition_surd, rows), rows
        kinds.add(got[0] if isinstance(got[0], type) else "surd")
    assert kinds == {"surd", errors.NoRealFixedPoint,
                     errors.RationalFixedPoint}


def test_modular_equivalence_exact():
    other = (2 * PHI + 1) / (PHI + 1)
    assert modular_equivalent(PHI, other)
    assert not modular_equivalent(PHI, quad(0, 1, 2))
    # integer shifts and inversion preserve the tail
    assert modular_equivalent(PHI, PHI + 3)
    assert modular_equivalent(PHI, 1 / PHI)


def test_modular_equivalence_rationals():
    assert modular_equivalent(Fraction(1, 3), Fraction(7, 5))
    assert not modular_equivalent(Fraction(1, 3), PHI)


def test_modular_equivalence_float_fallback():
    phi = (1 + math.sqrt(5)) / 2
    assert modular_equivalent(phi, phi - 1)
    assert not modular_equivalent(phi, math.sqrt(2))


def test_modular_equivalence_precision_loss():
    # a float that collapses to an integer after one quotient
    with pytest.raises(errors.PrecisionLoss):
        modular_equivalent(2.0, 3.0)


@settings(max_examples=50)
@given(st.integers(0, 2 ** 30))
def test_modular_equivalence_reflexive_symmetric(seed):
    import random
    rng = random.Random(seed)
    d = rng.choice([2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 23])
    x = quad(Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
             Fraction(rng.randint(1, 3), rng.randint(1, 4)), d)
    y = quad(Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
             Fraction(rng.randint(1, 3), rng.randint(1, 4)), d)
    assert modular_equivalent(x, x, depth=300)
    assert (modular_equivalent(x, y, depth=300)
            == modular_equivalent(y, x, depth=300))


def test_same_field_surds_share_tails_iff_cycles_meet():
    # sqrt(2) and 1 + sqrt(2) = its own complete quotient: equivalent
    s2 = quad(0, 1, 2)
    assert modular_equivalent(s2, 1 + s2)
    assert modular_equivalent(s2, 2 * s2 + 1) in (True, False)  # decidable


@pytest.mark.parametrize("call, error, message", [
    (lambda: rotation_number([]), ValueError, "empty matrix sequence"),
    (lambda: rotation_number([FIB], depth=0), ValueError,
     "depth must be >= 1"),
    (lambda: modular_equivalent(PHI, PHI, depth=4), ValueError,
     "depth must be >= 5"),
    # the complete quotients of sqrt(94) repeat with period 16
    (lambda: modular_equivalent(quad(0, 1, 94), PHI, depth=15),
     errors.PrecisionLoss, "no cycle within 15 complete quotients"),
    # 1e-13 is 0 plus a remainder no larger than its error, whose next
    # error passes 0.49: one quotient
    (lambda: modular_equivalent(1e-13, float(PHI)), errors.PrecisionLoss,
     "fewer than 5 stable partial quotients"),
    # the shape of every matrix is checked before any determinant
    (lambda: rotation_number([((1, 0, 0), (0, 1, 0), (0, 0, 1))]),
     errors.IETLabError, "rotation numbers need 2x2 matrices"),
    (lambda: detect_quadratic_surd([((5, 5), (5, 5)), ((1, 0, 0), (0, 1, 0),
                                                        (0, 0, 1))]),
     errors.IETLabError, "rotation numbers need 2x2 matrices"),
    (lambda: rotation_number([FIB, ((1, 0), (0,))]), errors.IETLabError,
     "rotation numbers need 2x2 matrices"),
    (lambda: MoebiusMatrix.from_rows(((1, 2, 3), (4, 5, 6))),
     errors.IETLabError, "rotation numbers need 2x2 matrices"),
    (lambda: MoebiusMatrix.from_rows(((2, 1),)), errors.IETLabError,
     "rotation numbers need 2x2 matrices"),
], ids=["rotation-empty", "rotation-depth-0", "modular-depth-4",
        "modular-cycle-past-depth", "modular-float-one-quotient",
        "rotation-3x3", "surd-3x3-after-det-0",
        "rotation-ragged", "from-rows-2x3", "from-rows-1x2"])
def test_rotation_refusals(call, error, message):
    with pytest.raises(error) as exc_info:
        call()
    assert str(exc_info.value) == message
