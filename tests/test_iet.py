import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ietlab import errors
from ietlab.iet import (KeaneStatus, KeaneVerdict, evaluate, interval_index,
                        inverse, is_irreducible, keane_condition, orbit,
                        validate)
from ietlab.numbers import golden_alpha, quad


def golden_spec(mode="exact"):
    a = golden_alpha()
    if mode == "float":
        af = float(a)
        return validate((1 - af, af), (2, 1), mode="float")
    return validate((1 - a, a), (2, 1))


def test_validate_exact():
    spec = validate((Fraction(1, 3), Fraction(2, 3)), (2, 1))
    assert spec.mode == "exact"
    assert spec.beta == (0, Fraction(1, 3), 1)
    # lambda^pi = (2/3, 1/3)
    assert spec.beta_pi == (0, Fraction(2, 3), 1)


def test_validate_rejects_bad_input():
    with pytest.raises(errors.LengthSumError):
        validate((Fraction(1, 2), Fraction(1, 3)), (2, 1))
    with pytest.raises(errors.NonPositiveLength):
        validate((Fraction(3, 2), Fraction(-1, 2)), (2, 1))
    with pytest.raises(errors.NonBijectivePermutation):
        validate((Fraction(1, 2), Fraction(1, 2)), (1, 1))
    with pytest.raises(errors.LengthSumError):
        validate((0.5, 0.5 + 1e-9), (2, 1), mode="float")


def test_validate_rejects_lengths_foreign_to_the_exact_mode():
    with pytest.raises(errors.ModeMismatch):
        validate((0.4, 0.6), (2, 1), mode="exact")
    with pytest.raises(errors.ModeMismatch):
        validate((Fraction(2, 5), Fraction(3, 5)), (2, 1), mode="binary32")
    # one field is fine, two are not
    validate((quad(0, Fraction(1, 5), 5), 1 - quad(0, Fraction(1, 5), 5)),
             (2, 1))
    with pytest.raises(errors.DomainError, match="mixed quadratic fields"):
        validate((quad(Fraction(1, 2), Fraction(1, 10), 5),
                  quad(Fraction(1, 2), Fraction(-1, 10), 2)), (2, 1))


def test_is_irreducible():
    assert is_irreducible((2, 1))
    assert is_irreducible((3, 1, 2))
    assert not is_irreducible((1, 3, 2))      # fixes {1}
    assert not is_irreducible((2, 1, 3))      # fixes {1,2}


def test_evaluate_rotation():
    # lambda = (1/3, 2/3), pi = (2,1) is rotation by 2/3
    spec = validate((Fraction(1, 3), Fraction(2, 3)), (2, 1))
    assert evaluate(spec, Fraction(0)) == Fraction(2, 3)
    assert evaluate(spec, Fraction(1, 2)) == Fraction(1, 6)
    assert evaluate(spec, Fraction(1, 3)) == 0


def test_evaluate_golden_point():
    spec = golden_spec("float")
    assert math.isclose(evaluate(spec, 0.1), 0.7180339887498949, abs_tol=1e-12)


def test_flip_branch():
    # single flipped interval: the map x -> beta_pi[pi(i)] - (x - beta[i-1])
    spec = validate((Fraction(1, 2), Fraction(1, 2)), (2, 1), (-1, 1))
    # v_1 = [0,1/2) flipped onto [1/2,1): 1/4 -> 1 - 1/4 = 3/4
    assert evaluate(spec, Fraction(1, 4)) == Fraction(3, 4)
    # left endpoint remaps to the target's left endpoint, keeping bijectivity
    assert evaluate(spec, Fraction(0)) == Fraction(1, 2)


def test_flip_is_bijection_on_grid():
    spec = validate((0.5, 0.5), (2, 1), (-1, -1), mode="float")
    pts = [i / 64 for i in range(64)]
    images = sorted(evaluate(spec, x) for x in pts)
    assert len(set(images)) == 64
    assert all(0 <= y < 1 for y in images)


def test_float_image_is_clamped_into_its_target():
    # x + (lo - left) rounds onto 1.0 for the last float below beta_1,
    # whose branch goes onto the last target [lo, 1)
    spec = validate((0.14721598196292884, 0.3037874470780003,
                     0.21469342553678422, 0.3343031454222867), (4, 2, 3, 1),
                    mode="float")
    pts = orbit(spec, math.nextafter(spec.beta[1], 0.0), 2).points
    assert pts[1] == math.nextafter(1.0, 0.0)


def test_interval_index():
    spec = golden_spec()
    a = golden_alpha()
    assert interval_index(spec, Fraction(0)) == 1
    assert interval_index(spec, 1 - a) == 2
    with pytest.raises(errors.DomainError):
        interval_index(spec, Fraction(-1, 10))
    with pytest.raises(errors.DomainError):
        interval_index(spec, Fraction(1))


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_non_finite_points_are_domain_errors(mode, x):
    spec = golden_spec(mode)
    for f in (evaluate, interval_index):
        with pytest.raises(errors.DomainError):
            f(spec, x)
    with pytest.raises(errors.DomainError):
        orbit(spec, x, 3)


@pytest.mark.parametrize("lengths, pi, signs, error, message", [
    ((), (), None, errors.NonPositiveLength, "need at least one interval"),
    ((0.5, 0.5), (3, 1, 2), None, errors.NonBijectivePermutation,
     "permutation size differs from lengths"),
    ((0.5, 0.5), (2, 1), (1,), errors.NonBijectivePermutation,
     "signs must be +1/-1, one per interval"),
    ((0.5, 0.5), (2, 1), (1, 0), errors.NonBijectivePermutation,
     "signs must be +1/-1, one per interval"),
], ids=["no-interval", "pi-size", "signs-size", "sign-zero"])
def test_validate_refusals(lengths, pi, signs, error, message):
    with pytest.raises(error) as exc_info:
        validate(lengths, pi, signs)
    assert str(exc_info.value) == message


def test_validate_refuses_to_truncate_pi_and_signs():
    half = (Fraction(1, 2), Fraction(1, 2))
    for pi, signs in [((2.5, 1), None), ((2, 1), (1.7, -1.2)),
                      ((math.inf, 1), None), (("2", "x"), None)]:
        with pytest.raises(ValueError):
            validate(half, pi, signs)
    # integral values of any type are still read as ints
    spec = validate(half, (2.0, "1"), (1.0, Fraction(1)))
    assert spec.pi == (2, 1) and spec.signs == (1, 1)


def test_inverse_roundtrip_exact():
    spec = validate((Fraction(1, 5), Fraction(3, 10), Fraction(1, 2)),
                    (3, 1, 2))
    inv = inverse(spec)
    for x in (Fraction(1, 10), Fraction(1, 4), Fraction(7, 10), Fraction(0)):
        assert evaluate(inv, evaluate(spec, x)) == x


def test_orbit_records_points_and_indices():
    spec = validate((Fraction(1, 2), Fraction(1, 2)), (2, 1))
    orb = orbit(spec, Fraction(1, 4), 4)
    assert orb.points == (Fraction(1, 4), Fraction(3, 4), Fraction(1, 4),
                          Fraction(3, 4), Fraction(1, 4))
    assert orb.interval_indices == (1, 2, 1, 2, 1)


def test_keane_holds_for_golden():
    assert keane_condition(golden_spec(), 50).status is KeaneStatus.HOLDS


def test_keane_fails_for_rational():
    spec = validate((Fraction(1, 3), Fraction(2, 3)), (2, 1))
    verdict = keane_condition(spec, 10)
    assert verdict.status is KeaneStatus.FAILS
    # beta_1 = 1/3 -> 1/3 + 2/3 = 0... second image 2/3, third 1/3: collision
    assert verdict.step is not None


def test_keane_float_reports_inconclusive():
    spec = validate((1 / 3, 2 / 3), (2, 1), mode="float")
    assert keane_condition(spec, 10).status is KeaneStatus.INCONCLUSIVE


@given(st.integers(2, 5), st.data())
def test_orbit_stays_in_domain(n, data):
    import itertools
    perms = [p for p in itertools.permutations(range(1, n + 1))
             if is_irreducible(p)]
    pi = data.draw(st.sampled_from(perms))
    raw = data.draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    lam = [Fraction(r, sum(raw)) for r in raw]
    lam[-1] = 1 - sum(lam[:-1])
    spec = validate(lam, pi)
    x = Fraction(data.draw(st.integers(0, 99)), 100)
    for p in orbit(spec, x, 30).points:
        assert 0 <= p < 1


@given(st.integers(0, 999))
def test_golden_orbit_preserves_rotation_structure(k):
    # the golden 2-IET acts as x -> x + alpha (mod 1)
    a = golden_alpha()
    spec = validate((1 - a, a), (2, 1))
    x = Fraction(k, 1000)
    y = evaluate(spec, x)
    shifted = x + a
    assert y == (shifted - 1 if shifted >= 1 else shifted)


def _random_spec(rng, n, mode, flips):
    perms = [p for p in itertools.permutations(range(1, n + 1))
             if is_irreducible(p)]
    raw = [rng.randint(1, 12) for _ in range(n)]
    if mode == "exact":
        lam = [Fraction(r, sum(raw)) for r in raw]
    else:   # rational floats collide up to rounding, perturbed ones do not
        jitter = rng.choice((0.0, 1e-3))
        lam = [r / sum(raw) + rng.uniform(-jitter, jitter) for r in raw[:-1]]
        lam.append(1 - sum(lam))
    signs = [rng.choice((1, -1)) for _ in range(n)] if flips else None
    return validate(lam, rng.choice(perms), signs, mode=mode)


def _keane_by_evaluate(spec, depth, tol=1e-10):
    # the definition, one evaluate per cut per step
    disc = list(spec.cuts)
    pts = list(disc)
    for s in range(depth):
        pts = [evaluate(spec, p) for p in pts]
        if spec.mode == "exact" and any(p in disc for p in pts):
            return KeaneVerdict(KeaneStatus.FAILS, depth, s, tuple(pts))
        if spec.mode == "float" and any(abs(p - d) <= tol
                                        for p in pts for d in disc):
            return KeaneVerdict(KeaneStatus.INCONCLUSIVE, depth, s,
                                tuple(pts))
    return KeaneVerdict(KeaneStatus.HOLDS, depth)


@pytest.mark.parametrize("mode, flips", [("exact", False), ("exact", True),
                                         ("float", False), ("float", True)])
def test_keane_matches_stepping_by_evaluate(mode, flips):
    rng = random.Random(f"keane:{mode}:{flips}")
    seen = set()
    for _ in range(40):
        spec = _random_spec(rng, rng.choice((2, 3, 4)), mode, flips)
        for depth in (0, 1, 7, 150):
            verdict = keane_condition(spec, depth)
            assert verdict == _keane_by_evaluate(spec, depth), spec
            seen.add(verdict.status)
    assert len(seen) == 2   # both a collision and none were met


def test_orbit_refuses_a_negative_length():
    with pytest.raises(errors.DomainError,
                       match="^orbit length must be nonnegative$"):
        orbit(golden_spec(), Fraction(1, 10), -1)


def test_keane_condition_refuses_a_negative_depth():
    # a negative depth once ran no step and reported Holds
    with pytest.raises(errors.DomainError,
                       match="^Keane depth must be nonnegative$"):
        keane_condition(golden_spec(), -5)


def test_keane_condition_holds_on_one_interval():
    # no discontinuity, so nothing can collide
    spec = validate((Fraction(1),), (1,))
    assert keane_condition(spec, 5) == KeaneVerdict(KeaneStatus.HOLDS, 5)
