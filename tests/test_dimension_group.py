import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ietlab import dimension_group, errors
from ietlab.dimension_group import (collatz_wielandt, cyclic_structure,
                                    estimate_state_dim, is_primitive,
                                    k_groups, measure_bounds,
                                    perron_frobenius, simplex_diameters,
                                    state_simplex,
                                    strict_ergodicity_verdict)
from ietlab.iet import is_irreducible, validate
from ietlab.induction import MatrixSequence, induce
from ietlab.intmat import identity, mat_mul, mat_vec, transpose
from ietlab.numbers import golden_alpha, quad

FIB2 = ((1, 1), (1, 2))   # golden block product, eigenvalue (3+sqrt(5))/2


def const_seq(m, k):
    return MatrixSequence((m,) * k, ("x",) * k)


def test_collatz_wielandt_bounds_perron_root():
    lam = (3 + math.sqrt(5)) / 2
    assert float(collatz_wielandt(FIB2, (1, 1))) <= lam
    assert collatz_wielandt(FIB2, (1, 1)) == 2
    with pytest.raises(errors.ZeroVector):
        collatz_wielandt(FIB2, (0, 0))
    # zero coordinates are excluded from the minimum
    assert collatz_wielandt(((1, 1), (1, 1)), (1, 0)) == 1
    # a float vector: dyadic coordinates make the float products exact, and
    # a float quotient is the exact one correctly rounded
    exact = collatz_wielandt(FIB2, (Fraction(3, 4), Fraction(1, 2)))
    assert exact == Fraction(5, 3)
    assert collatz_wielandt(FIB2, (0.75, 0.5)) == float(exact)


def test_cyclic_structure_period_two():
    cs = cyclic_structure(((0, 1), (1, 0)))
    assert cs.period == 2
    assert cs.block_permutation == ((1,), (2,))
    assert len(cs.peripheral_spectrum_moduli) == 2


def test_cyclic_structure_primitive():
    assert cyclic_structure(FIB2).period == 1
    assert is_primitive(((2, 1), (1, 1)))


def test_cyclic_structure_three_cycle():
    p = ((0, 1, 0), (0, 0, 1), (1, 0, 0))
    cs = cyclic_structure(p)
    assert cs.period == 3
    assert not is_primitive(p)


def _numpy_peripheral_moduli(p):
    """The moduli of numpy's eigenvalues within 1e-8 of the largest."""
    np = pytest.importorskip("numpy")
    eigs = np.linalg.eigvals(np.array(p, dtype=float))
    lam = float(np.max(np.abs(eigs)))
    return sorted(float(abs(e)) for e in eigs if abs(e) >= lam * (1 - 1e-8))


def _random_irreducible(rng):
    """An irreducible n x n matrix, n in 2..6, whose edges all go from one
    of r classes to the next, so its period is a multiple of r."""
    while True:
        n, r = rng.randint(2, 6), rng.choice((1, 1, 2, 3))
        cls = [i % r for i in range(n)]
        rng.shuffle(cls)
        p = tuple(tuple(rng.randint(1, 9) if (cls[i] + 1) % r == cls[j] % r
                        and rng.random() < 0.6 else 0 for j in range(n))
                  for i in range(n))
        try:
            return p, cyclic_structure(p)
        except errors.NotIrreducible:
            continue


def test_peripheral_moduli_match_numpy_eigenvalues():
    rng = random.Random(13)
    cases = [(p, cyclic_structure(p)) for p in
             (((1000, 1), (1, 1000)), ((1000, 1), (2, 1000)),
              ((0, 1), (1, 0)), ((0, 1, 0), (0, 0, 1), (1, 0, 0)), ((7,),))]
    cases += [_random_irreducible(rng) for _ in range(1200)]
    periods = {cs.period for _, cs in cases}
    assert {1, 2, 3} <= periods
    for p, cs in cases:
        ref = _numpy_peripheral_moduli(p)
        assert len(cs.peripheral_spectrum_moduli) == len(ref) == cs.period, p
        for got, want in zip(cs.peripheral_spectrum_moduli, ref):
            assert abs(got - want) <= 1e-12 * want, (p, got, want)


def test_peripheral_moduli_on_a_small_spectral_gap():
    # power iteration cannot separate 1001 from 999 in reasonable time;
    # the bisection needs no gap
    assert cyclic_structure(((1000, 1), (1, 1000))) \
        .peripheral_spectrum_moduli == (1001.0,)
    rho = cyclic_structure(((1000, 1), (2, 1000))).peripheral_spectrum_moduli
    assert rho == (pytest.approx(1000 + math.sqrt(2), rel=1e-15),)


def test_cyclic_structure_rejects_disconnected():
    with pytest.raises(errors.NotIrreducible):
        cyclic_structure(((1, 0), (0, 1)))


def _boolean_powers(p, count: int) -> list:
    """B^0, ..., B^count for the 0/1 matrix B of the digraph of P."""
    b = tuple(tuple(int(v > 0) for v in row) for row in p)
    powers = [identity(len(p))]
    for _ in range(count):
        powers.append(tuple(tuple(int(v > 0) for v in row)
                            for row in mat_mul(powers[-1], b)))
    return powers


def _wielandt_primitive(p) -> bool:
    """Reference: P is primitive iff P^((n-1)^2 + 1) > 0 (Wielandt)."""
    power = _boolean_powers(p, (len(p) - 1) ** 2 + 1)[-1]
    return all(v for row in power for v in row)


def _walk_reference(p):
    """(period, classes) of P from walk lengths alone, or the message of
    its NotIrreducible.  The period is the gcd of the closed-walk lengths up
    to n, which include every cycle; vertex v is in class c when every walk
    from vertex 0 to v of length at most 2n has length = c (mod period)."""
    n = len(p)
    powers = _boolean_powers(p, 2 * n)
    if not all(any(b[i][j] for b in powers[:n])
               for i in range(n) for j in range(n)):
        return "digraph of P is not strongly connected"
    cycles = [k for k in range(1, n + 1)
              if any(powers[k][i][i] for i in range(n))]
    if not cycles:
        return "digraph of P has no cycle"
    r = math.gcd(*cycles)
    residues = [{k % r for k, b in enumerate(powers) if b[0][v]}
                for v in range(n)]
    assert all(len(res) == 1 for res in residues), p
    return r, tuple(tuple(v + 1 for v in range(n) if residues[v] == {c})
                    for c in range(r))


def _matrix_pool() -> list:
    """Every matrix with entries 0..2 up to 3x3, then seeded 4x4..6x6 ones:
    random density, edges from each of r cyclic classes to the next (of
    period a multiple of r), and block triangular (reducible)."""
    pool = [tuple(entries[i:i + n] for i in range(0, n * n, n))
            for n in (1, 2, 3)
            for entries in itertools.product((0, 1, 2), repeat=n * n)]
    rng = random.Random(16)
    for _ in range(1500):
        n, form = rng.randint(4, 6), rng.choice(("dense", "cyclic", "blocks"))
        r, k, density = rng.randint(1, 4), rng.randint(1, n - 1), rng.random()
        cls = [i % r for i in range(n)]
        rng.shuffle(cls)

        def edge(i, j):
            if form == "cyclic":
                return (cls[i] + 1 - cls[j]) % r == 0 and rng.random() < 0.7
            return ((form == "dense" or i < k or j >= k)
                    and rng.random() < density)
        pool.append(tuple(tuple(rng.randint(1, 2) if edge(i, j) else 0
                                for j in range(n)) for i in range(n)))
    return pool


def test_is_primitive_matches_wielandt_on_small_and_seeded_matrices():
    # n = 1 holds [[0]], whose digraph has no cycle and so no period
    for p in _matrix_pool():
        assert is_primitive(p) == _wielandt_primitive(p), p


def test_cyclic_structure_matches_walk_lengths():
    seen = set()
    for p in _matrix_pool():
        want = _walk_reference(p)
        try:
            cs = cyclic_structure(p)
            got = cs.period, cs.block_permutation
        except errors.NotIrreducible as exc:
            got = str(exc)
        assert got == want, p
        seen.add(want if isinstance(want, str) else min(want[0], 3))
    assert seen == {1, 2, 3, "digraph of P is not strongly connected",
                    "digraph of P has no cycle"}


def test_perron_frobenius_past_the_float_range_of_its_iterates():
    # about 270 steps take the integer iterate past 10**308; its floats are
    # read after a shift into range
    p = ((100, 1), (1, 90))
    res = perron_frobenius(p)
    rho = 95 + math.sqrt(26)
    assert abs(res.eigenvalue - rho) <= 1e-12 * rho
    assert abs(sum(res.eigenvector) - 1) < 1e-12
    image = mat_vec(p, res.eigenvector)
    assert all(abs(a - rho * b) < 1e-9 for a, b in zip(image, res.eigenvector))


def test_perron_frobenius_bracket_holds_past_the_bit_budget(monkeypatch):
    # with a budget of 64 bits the iterate is shifted from about the tenth
    # step on; any positive vector gives a valid Collatz-Wielandt bracket
    p = ((100, 1), (1, 90))
    full = perron_frobenius(p)
    monkeypatch.setattr(dimension_group, "PF_MAX_BITS", 64)
    res = perron_frobenius(p)
    rho = 95 + math.sqrt(26)
    assert res.lower_cw <= rho <= res.upper_cw
    assert res.upper_cw - res.lower_cw <= Fraction(1, 10 ** 12)
    assert abs(res.eigenvalue - rho) <= 1e-12 * rho
    assert res.history[:9] == full.history[:9]
    assert res.history[-1] != full.history[-1]


def test_cyclic_structure_beyond_the_float_range_is_precision_loss():
    with pytest.raises(errors.PrecisionLoss, match="beyond the float range"):
        cyclic_structure(((10 ** 400, 1), (1, 1)))


def test_perron_frobenius_golden_block():
    res = perron_frobenius(FIB2)
    lam = (3 + math.sqrt(5)) / 2
    assert abs(res.eigenvalue - lam) < 1e-9
    assert res.lower_cw <= res.upper_cw
    assert all(v > 0 for v in res.eigenvector)
    assert abs(sum(res.eigenvector) - 1) < 1e-12
    # brackets tighten monotonically in the recorded history
    lowers = [lo for lo, _ in res.history]
    uppers = [hi for _, hi in res.history]
    assert lowers == sorted(lowers)
    assert uppers == sorted(uppers, reverse=True)


def test_perron_frobenius_closes_a_bracket_below_1e_18():
    # the tolerance is compared as the exact value of its float: rounded to
    # a denominator of at most 10**18, 1e-20 was 0 and the bracket never
    # closed
    res = perron_frobenius(((2, 1), (1, 1)), tol=1e-20)
    assert 0 < res.upper_cw - res.lower_cw <= Fraction(1e-20)
    assert res.iterations == 26


def test_perron_frobenius_rejects_imprimitive():
    with pytest.raises(errors.NotPrimitive):
        perron_frobenius(((0, 1), (1, 0)))


def test_state_simplex_exact_diameter():
    seq = const_seq(((2, 1), (1, 1)), 30)
    assert state_simplex(seq, 1).diameter == Fraction(1, 3)
    diams = [state_simplex(seq, k).diameter for k in range(1, 21)]
    assert all(d2 <= d1 for d1, d2 in zip(diams, diams[1:]))
    ratio = float(diams[-1] / diams[-2])
    target = (3 - math.sqrt(5)) / (3 + math.sqrt(5))
    assert abs(ratio - target) / target < 0.1


def test_simplex_diameters_match_state_simplex():
    a = golden_alpha()
    seq = induce(validate((1 - a, a), (2, 1)), 60)
    assert simplex_diameters(seq) == [state_simplex(seq, k).diameter
                                      for k in range(1, 61)]


def _normalized_columns(v):
    """Reference: the columns of V as Fractions over their sums."""
    cols = []
    for col in zip(*v):
        total = sum(col)
        cols.append(tuple(Fraction(c, total) for c in col))
    return cols


def _l1_diameter(cols):
    """Reference: the largest pairwise L1 distance, in Fractions."""
    diam = Fraction(0)
    for a, b in itertools.combinations(cols, 2):
        diam = max(diam, sum(abs(x - y) for x, y in zip(a, b)))
    return diam


def _random_iet(rng, n, exact):
    perms = [p for p in itertools.permutations(range(1, n + 1))
             if is_irreducible(p)]
    if exact:   # lengths m + k*sqrt(d) over their sum, connection-free
        d = rng.choice((2, 3, 5, 7))
        raw = [quad(rng.randint(1, 9), rng.randint(1, 9), d)
               for _ in range(n)]
        total = sum(raw[1:], raw[0])
        return validate([x / total for x in raw], rng.choice(perms))
    raw = [rng.random() + 0.05 for _ in range(n)]
    lam = [v / sum(raw) for v in raw]
    lam[-1] = 1.0 - sum(lam[:-1])
    return validate(lam, rng.choice(perms), mode="float")


def _induced_sequences(depth):
    a = golden_alpha()
    specs = [validate((1 - a, a), (2, 1))]
    for d in (2, 3, 7, 17):
        alpha = quad(-math.isqrt(d), 1, d)
        specs.append(validate((1 - alpha, alpha), (2, 1)))
    for n in (3, 4, 5):
        rng = random.Random(f"simplex:{n}")
        specs += [_random_iet(rng, n, exact) for exact in (False, True)]
    seqs = []
    for spec in specs:
        try:
            seqs.append(induce(spec, depth))
        except (errors.KeaneViolation, errors.Reducible) as exc:
            seqs.append(exc.partial)
    return seqs


def _product(seq, k):
    v = identity(len(seq.matrices[0]))
    for m in seq.matrices[:k]:
        v = mat_mul(v, transpose(m))
    return v


def test_simplex_quantities_match_the_fraction_reference():
    bd = ((2, 1, 0, 0), (1, 1, 0, 0), (0, 0, 3, 1), (0, 0, 1, 1))
    seqs = _induced_sequences(120) + [const_seq(bd, 40), const_seq(FIB2, 40)]
    for seq in seqs:
        columns = [_normalized_columns(_product(seq, k))
                   for k in range(1, len(seq.matrices) + 1)]
        want = [_l1_diameter(cols) for cols in columns]
        assert simplex_diameters(seq) == want
        for k in (1, 7, len(want)):
            approx = state_simplex(seq, k)
            assert approx.diameter == want[k - 1]
            assert list(approx.columns) == columns[k - 1]


def _numpy_rank(columns, tol):
    """Reference: numpy's SVD of the centred columns, as the affine
    dimension state_simplex reports."""
    np = pytest.importorskip("numpy")
    arr = np.array([[float(x) for x in col] for col in columns]).T
    s = np.linalg.svd(arr - arr.mean(axis=1, keepdims=True), compute_uv=False)
    return min(int(np.sum(s > tol)) + 1, len(columns))


def test_numeric_rank_matches_numpy_svd():
    ranks = set()
    for n in (3, 4, 5):
        rng = random.Random(f"rank:{n}")
        for _ in range(3):
            seq = induce(_random_iet(rng, n, exact=False), 120)
            for k in range(1, 121):
                for tol in (1e-4, 1e-8, 1e-12):
                    approx = state_simplex(seq, k, rank_tol=tol)
                    want = _numpy_rank(approx.columns, tol)
                    assert approx.numeric_rank == want, (n, k, tol)
                    ranks.add(want)
    assert ranks == {1, 2, 3, 4, 5}


def test_state_simplex_columns_are_stochastic():
    seq = const_seq(((1, 2, 0), (1, 0, 1), (0, 1, 1)), 10)
    approx = state_simplex(seq, 6)
    for col in approx.columns:
        assert sum(col) == 1
        assert all(c >= 0 for c in col)


def test_state_simplex_needs_enough_matrices():
    seq = const_seq(FIB2, 3)
    with pytest.raises(errors.SequenceTooShort):
        state_simplex(seq, 5)


def test_estimate_state_dim_constant_primitive():
    assert estimate_state_dim(const_seq(FIB2, 60), 60) == 1


def test_estimate_state_dim_block_diagonal():
    bd = ((2, 1, 0, 0), (1, 1, 0, 0), (0, 0, 3, 1), (0, 0, 1, 1))
    assert estimate_state_dim(const_seq(bd, 60), 60) == 2


def test_estimate_state_dim_depth_zero():
    # the zeroth simplex is the full standard simplex
    assert estimate_state_dim(const_seq(FIB2, 5), 0) == 2


def test_verdict_golden_strictly_ergodic():
    a = golden_alpha()
    spec = validate((1 - a, a), (2, 1))
    verdict = strict_ergodicity_verdict(spec)
    assert verdict.status == "StrictlyErgodic"
    cert = verdict.certificate
    assert cert.witness.block_length <= 2
    lam = (3 + math.sqrt(5)) / 2
    assert abs(cert.pf.eigenvalue - lam) < 1e-9
    assert verdict.state_dim_estimate == 1


def test_verdict_rational_inconclusive():
    spec = validate((Fraction(1, 3), Fraction(2, 3)), (2, 1))
    verdict = strict_ergodicity_verdict(spec)
    assert verdict.status == "Inconclusive"
    assert any("KeaneViolation" in d for d in verdict.diagnostics)


def test_k_groups():
    for n in range(2, 11):
        assert k_groups(n) == (n, 1)
    with pytest.raises(ValueError):
        k_groups(1)


def test_measure_bounds():
    assert measure_bounds(4, has_flips=False) == 2
    assert measure_bounds(4, has_flips=True) == 6
    assert measure_bounds(2, has_flips=False) == 1
    assert measure_bounds(5, has_flips=False) == 2
    with pytest.raises(ValueError):
        measure_bounds(1, has_flips=False)


@settings(max_examples=40)
@given(st.integers(2, 3), st.data())
def test_cw_is_lower_bound_on_any_positive_vector(n, data):
    rows = data.draw(st.lists(
        st.lists(st.integers(0, 5), min_size=n, max_size=n),
        min_size=n, max_size=n))
    m = tuple(tuple(r) for r in rows)
    if not is_primitive(m):
        return
    x = tuple(data.draw(st.integers(1, 9)) for _ in range(n))
    res = perron_frobenius(m, tol=1e-10)
    assert float(collatz_wielandt(m, x)) <= res.eigenvalue + 1e-9


SIGNED = ((1, -1), (1, 1))
NEGATIVE = "negative entry in nonnegative matrix"


@pytest.mark.parametrize("call, error, message", [
    (lambda: perron_frobenius(FIB2, tol=0), ValueError,
     "tol must be positive"),
    (lambda: state_simplex(MatrixSequence((), ()), 0),
     errors.SequenceTooShort, "empty sequence"),
    # eigenvalues 1 +- 10**200: the bracket cannot close in PF_MAX_ITER
    (lambda: perron_frobenius(((1, 10 ** 400), (1, 1))),
     errors.MaxIterExceeded, "bracket wider than 1e-12 after 2000 "
     "iterations"),
    # a signed matrix was primitive, a ZeroDivisionError in
    # perron_frobenius and a simplex of diameter -2
    (lambda: is_primitive(SIGNED), ValueError, NEGATIVE),
    (lambda: cyclic_structure(SIGNED), ValueError, NEGATIVE),
    (lambda: perron_frobenius(SIGNED), ValueError, NEGATIVE),
    (lambda: collatz_wielandt(SIGNED, (1, 1)), ValueError, NEGATIVE),
    (lambda: state_simplex(const_seq(SIGNED, 2), 2), ValueError, NEGATIVE),
    (lambda: simplex_diameters(const_seq(SIGNED, 2)), ValueError, NEGATIVE),
    (lambda: estimate_state_dim(const_seq(SIGNED, 2), 2), ValueError,
     NEGATIVE),
    # a 2x3 matrix was primitive with period 1 and rho 3.0; a 2x1 matrix
    # raised a bare IndexError
    (lambda: is_primitive(((1, 1, 1), (1, 1, 1))), ValueError,
     "P must be square"),
    (lambda: cyclic_structure(((1, 1, 1), (1, 1, 1))), ValueError,
     "P must be square"),
    (lambda: is_primitive(((1,), (1,))), ValueError, "P must be square"),
    # a negative depth once read matrices[:k], the first len + k of them
    (lambda: state_simplex(const_seq(FIB2, 3), -1), errors.DomainError,
     "simplex depth must be nonnegative"),
    (lambda: estimate_state_dim(const_seq(FIB2, 3), -3), errors.DomainError,
     "simplex depth must be nonnegative"),
], ids=["pf-tol-0", "simplex-empty", "pf-max-iter", "primitive-signed",
        "cyclic-signed", "pf-signed", "cw-signed", "simplex-signed",
        "diameters-signed", "state-dim-signed", "primitive-2x3",
        "cyclic-2x3", "primitive-2x1", "simplex-negative",
        "state-dim-negative"])
def test_dimension_group_refusals(call, error, message):
    with pytest.raises(error) as exc_info:
        call()
    assert str(exc_info.value) == message


def test_verdict_takes_its_tolerance_by_keyword_only():
    # a fourth positional argument (once min_repeats) is refused, never
    # read as a tolerance
    spec = validate((Fraction(1, 3), Fraction(2, 3)), (2, 1))
    with pytest.raises(TypeError, match="positional argument"):
        strict_ergodicity_verdict(spec, 40, 12, 3)
    assert (strict_ergodicity_verdict(spec, 40, 12, tol=1e-8)
            == strict_ergodicity_verdict(spec, 40, 12))


@pytest.mark.parametrize("spec, diagnostic", [
    (validate((Fraction(1, 2), Fraction(1, 2)), (2, 1), (-1, 1)),
     "FlipUnsupported: "),
    (validate((Fraction(1, 3), Fraction(2, 3)), (1, 2)), "Reducible: "),
    (validate((Fraction(1),), (1,)),
     "Reducible: Rauzy induction needs at least two intervals"),
    (validate((Fraction(1, 3), Fraction(2, 3)), (2, 1)),
     "KeaneViolation at step 1: "),
], ids=["flip", "reducible", "one-interval", "keane"])
def test_verdict_diagnostic_names_a_step_only_when_there_is_one(spec,
                                                               diagnostic):
    verdict = strict_ergodicity_verdict(spec)
    assert verdict.status == "Inconclusive" and verdict.certificate is None
    (diag,) = verdict.diagnostics
    assert diag.startswith(diagnostic) and "None" not in diag
