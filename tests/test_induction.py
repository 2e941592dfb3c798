import itertools
import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ietlab import errors, intmat
from ietlab.iet import is_irreducible, validate
from ietlab.induction import (BratteliDiagram, MatrixSequence, _RauzyState,
                              detect_stationarity, factor_zero_one, induce,
                              rauzy_step, simplicity_check, telescope,
                              to_bratteli)
from ietlab.numbers import golden_alpha, quad

F2 = ((1, 0), (1, 1))   # top-type elementary matrix for the golden path
F1 = ((1, 1), (0, 1))


def golden_spec():
    a = golden_alpha()
    return validate((1 - a, a), (2, 1))


def random_float_spec(rng, n):
    perms = [p for p in itertools.permutations(range(1, n + 1))
             if is_irreducible(p)]
    raw = [rng.random() + 0.05 for _ in range(n)]
    lam = [v / sum(raw) for v in raw]
    lam[-1] = 1.0 - sum(lam[:-1])
    return validate(lam, rng.choice(perms), mode="float")


def test_golden_path_alternates():
    seq = induce(golden_spec(), 10)
    assert seq.tags == ("a", "b") * 5
    assert seq.matrices == (F2, F1) * 5


def test_golden_renormalization_is_periodic():
    # after two steps the normalized state returns to (1-alpha, alpha)
    a = golden_alpha()
    seq = induce(golden_spec(), 2)
    assert seq.final_lengths == (1 - a, a)


def _relabelled_reference(spec):
    """The letter matrix of one step times the relabelling matrix R, where
    R[l][i] = 1 when the i-th interval of the new spec carries letter l + 1,
    multiplied densely."""
    state = _RauzyState(spec)
    m_letter, _ = state.step()
    n = spec.n
    relabel = tuple(tuple(int(state.top[i] == ell + 1) for i in range(n))
                    for ell in range(n))
    return intmat.mat_mul(tuple(tuple(r) for r in m_letter), relabel)


def test_rauzy_step_length_relation():
    # old lambda is proportional to M * new lambda (positional convention)
    rng = random.Random(1)
    for n in (3, 2, 4, 5, 6):
        for _ in range(20):
            spec = random_float_spec(rng, n)
            try:
                new_spec, m, tag = rauzy_step(spec)
            except errors.IETLabError:
                continue
            image = intmat.mat_vec(m, new_spec.lengths)
            scale = sum(image)
            for got, want in zip(image, spec.lengths):
                assert abs(got / scale - want) < 1e-12
            assert tag in ("a", "b")
            assert m == _relabelled_reference(spec)


def test_induce_emits_elementary_matrices():
    rng = random.Random(2)
    for _ in range(10):
        spec = random_float_spec(rng, 4)
        try:
            seq = induce(spec, 25)
        except errors.IETLabError:
            continue
        for m in seq.matrices:
            off = sum(v for i, row in enumerate(m)
                      for j, v in enumerate(row) if i != j)
            assert off == 1
            assert all(m[i][i] == 1 for i in range(len(m)))


def test_induce_length_recovery():
    rng = random.Random(3)
    checked = 0
    for _ in range(20):
        spec = random_float_spec(rng, 3)
        try:
            seq = induce(spec, 30)
        except errors.IETLabError:
            continue
        checked += 1
        v = intmat.mat_vec(intmat.product(seq.matrices), seq.final_lengths)
        total = sum(v)
        for got, want in zip(v, spec.lengths):
            assert abs(got / total - want) / want < 1e-10
    assert checked >= 10


def test_induce_rejects_flips_and_reducible():
    with pytest.raises(errors.FlipUnsupported):
        induce(validate((0.5, 0.5), (2, 1), (-1, 1), mode="float"), 5)
    with pytest.raises(errors.Reducible):
        induce(validate((Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)),
                        (1, 3, 2)), 5)


def test_induce_rejects_a_single_interval():
    # is_irreducible((1,)) holds, but one interval has nothing to compete with
    for lengths in ((Fraction(1),), (1.0,)):
        with pytest.raises(errors.Reducible,
                           match="needs at least two intervals"):
            induce(validate(lengths, (1,)), 5)


def test_rauzy_steps_keep_the_permutation_irreducible():
    # a step maps an irreducible permutation to an irreducible one (Rauzy,
    # Acta Arith. 34, 1979), so the two last letters never coincide
    rng = random.Random("rauzy-irreducible")
    perms = [p for n in range(2, 6)
             for p in itertools.permutations(range(1, n + 1))
             if is_irreducible(p)]
    six = [p for p in itertools.permutations(range(1, 7)) if is_irreducible(p)]
    perms += rng.sample(six, 40)
    steps = 0
    for pi in perms:
        raw = [rng.randint(1, 10 ** 9) for _ in pi]
        for lengths in ([Fraction(v, sum(raw)) for v in raw],
                        [v / sum(raw) for v in raw]):
            state = _RauzyState(validate(lengths, pi))
            for _ in range(300):
                try:
                    state.step()
                except errors.KeaneViolation:
                    break
                steps += 1
                # the permutation read from the two rows, as to_spec reads it
                assert is_irreducible(tuple(state.bottom.index(ell) + 1
                                            for ell in state.top)), pi
                assert state.top[-1] != state.bottom[-1], pi
    assert steps > 40_000


def test_induce_rational_halts_with_context():
    spec = validate((Fraction(1, 3), Fraction(2, 3)), (2, 1))
    with pytest.raises(errors.KeaneViolation) as exc_info:
        induce(spec, 50)
    exc = exc_info.value
    assert hasattr(exc, "step") and hasattr(exc, "partial")
    assert len(exc.partial.matrices) == exc.step


def _renormalising_reference(spec, steps):
    """Rauzy induction in letter coordinates that rescales the lengths to
    sum 1 after every step.  Returns the matrices, tags, letter lengths,
    the two rows, and the step of a KeaneViolation (None if all ran)."""
    n = spec.n
    top, bottom = list(range(1, n + 1)), list(spec.pi_inverse())
    lam = dict(zip(top, spec.lengths))
    matrices, tags, halted = [], [], None
    for k in range(steps):
        t, b = top[-1], bottom[-1]
        if lam[t] == lam[b]:
            halted = k
            break
        tag, win, lose, row = (("a", t, b, bottom) if lam[t] > lam[b]
                               else ("b", b, t, top))
        lam[win] = lam[win] - lam[lose]
        row.pop()
        row.insert(row.index(win) + 1, lose)
        total = sum(lam.values())
        lam = {ell: v / total for ell, v in lam.items()}
        matrices.append(tuple(
            tuple(int(r == c or (r, c) == (win - 1, lose - 1))
                  for c in range(n)) for r in range(n)))
        tags.append(tag)
    return (tuple(matrices), tuple(tags),
            tuple(lam[ell] for ell in range(1, n + 1)), (top, bottom), halted)


def _same_exact(got, want):
    assert got == want and [type(v) for v in got] == [type(v) for v in want]


def _exact_induction_specs():
    a = golden_alpha()
    specs = [(validate((1 - a, a), (2, 1)), 200)]
    for d in (2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 23):
        alpha = quad(-math.isqrt(d), 1, d)
        specs.append((validate((1 - alpha, alpha), (2, 1)), 200))
    rng = random.Random(21)
    for k in range(24):
        n = 3 + k % 3
        perms = [p for p in itertools.permutations(range(1, n + 1))
                 if is_irreducible(p)]
        if k % 2:
            theta = quad(-1, 1, rng.choice((2, 3, 5, 7)))
            raw = [rng.randint(1, 9) + rng.randint(0, 9) * theta
                   for _ in range(n)]
        else:
            raw = [Fraction(rng.randint(1, 40)) for _ in range(n)]
        total = sum(raw[1:], raw[0])
        specs.append((validate([x / total for x in raw], rng.choice(perms)),
                      60))
    # Fraction and Quadratic lengths over coprime denominators 9, 5 and 45
    x = quad(Fraction(-1, 5), Fraction(1, 5), 2)
    specs.append((validate((Fraction(2, 9), x, 1 - Fraction(2, 9) - x),
                           (3, 2, 1)), 200))
    # rational over 11, 13 and 143: a KeaneViolation at step 19
    specs.append((validate((Fraction(5, 11), Fraction(2, 13),
                            Fraction(56, 143)), (3, 2, 1)), 200))
    return specs


def test_exact_induction_matches_per_step_renormalisation():
    halted = 0
    for spec, depth in _exact_induction_specs():
        ms, tags, lengths, _, stop = _renormalising_reference(spec, depth)
        if stop is None:
            seq = induce(spec, depth)
        else:
            halted += 1
            with pytest.raises(errors.KeaneViolation) as exc_info:
                induce(spec, depth)
            assert exc_info.value.step == stop
            seq = exc_info.value.partial
        assert seq.matrices == ms and seq.tags == tags
        _same_exact(seq.final_lengths, lengths)

        ms, tags, lengths, (top, bottom), stop = _renormalising_reference(
            spec, 1)
        if stop is not None:
            continue
        new_spec, m, tag = rauzy_step(spec)
        _same_exact(new_spec.lengths, tuple(lengths[ell - 1] for ell in top))
        assert new_spec.pi == tuple(bottom.index(ell) + 1 for ell in top)
        assert tag == tags[0]
        # column i of the positional matrix is the letter matrix's column
        # of the letter now in position i
        assert m == tuple(tuple(row[ell - 1] for ell in top)
                          for row in ms[0])
    assert halted >= 5


def _binary_value(spec):
    """The exact spec of a float spec's binary value: Fraction(x) over the
    sum of them."""
    values = [Fraction(x) for x in spec.lengths]
    total = sum(values)
    return validate([v / total for v in values], spec.pi)


def _induce_to_halt(spec, depth):
    """(sequence, step of a KeaneViolation, or None if all steps ran)."""
    try:
        return induce(spec, depth), None
    except errors.KeaneViolation as exc:
        return exc.partial, exc.step


def test_float_induction_is_exact_induction_of_the_binary_value():
    golden = validate(tuple(map(float, golden_spec().lengths)), (2, 1))
    rng = random.Random(22)
    specs = [(golden, 150)] + [(random_float_spec(rng, 2 + k % 5), 200)
                               for k in range(100)]
    for spec, depth in specs:
        got, step = _induce_to_halt(spec, depth)
        want, want_step = _induce_to_halt(_binary_value(spec), depth)
        assert step == want_step
        assert got.matrices == want.matrices and got.tags == want.tags
        assert got.final_lengths == tuple(map(float, want.final_lengths))
    # golden's binary value is rational, so it ends in a connection
    assert _induce_to_halt(golden, 150)[1] == 87


def test_telescope_conserves_product():
    seq = induce(golden_spec(), 12)
    tel = telescope(seq, [2, 4, 6, 8, 10, 12])
    assert len(tel) == 6
    assert all(m == ((1, 1), (1, 2)) for m in tel.matrices)
    assert intmat.product(tel.matrices) == intmat.product(seq.matrices)


def test_telescope_keeps_trailing_partial_block():
    seq = induce(golden_spec(), 11)
    tel = telescope(seq, [4, 8])
    assert len(tel) == 3
    assert intmat.product(tel.matrices) == intmat.product(seq.matrices)


def test_telescope_of_an_empty_sequence_is_empty():
    seq = MatrixSequence((), (), (Fraction(1, 2), Fraction(1, 2)))
    assert telescope(seq, []) == seq
    with pytest.raises(errors.BadCutPoints):
        telescope(seq, [1])


def test_telescope_rejects_bad_cuts():
    seq = induce(golden_spec(), 8)
    with pytest.raises(errors.BadCutPoints):
        telescope(seq, [4, 4])
    with pytest.raises(errors.BadCutPoints):
        telescope(seq, [9])


def test_detect_stationarity_golden():
    seq = induce(golden_spec(), 40)
    w = detect_stationarity(seq, max_block=12, min_repeats=3)
    assert w is not None
    assert w.block_length == 2
    assert w.block_product == ((1, 1), (1, 2))
    assert w.repetitions_verified >= 3


def test_detect_stationarity_none_for_aperiodic():
    # matrices with growing entries cannot repeat
    mats = tuple(((1, k), (0, 1)) for k in range(1, 13))
    seq = MatrixSequence(mats, ("b",) * 12)
    assert detect_stationarity(seq, max_block=3, min_repeats=2) is None


def test_detect_stationarity_too_short():
    seq = induce(golden_spec(), 2)
    with pytest.raises(errors.SequenceTooShort):
        detect_stationarity(seq, max_block=4, min_repeats=3)


def test_simplicity_check():
    seq = induce(golden_spec(), 10)
    assert simplicity_check(seq, 2)
    # a single elementary matrix is never strictly positive
    assert not simplicity_check(MatrixSequence((F1,), ("b",)), 1)
    for window in (0, -1):
        with pytest.raises(errors.SequenceTooShort):
            simplicity_check(seq, window)


@pytest.mark.parametrize("call, error, message", [
    (lambda seq: detect_stationarity(seq, max_block=0),
     errors.SequenceTooShort, "max_block and min_repeats must be >= 1"),
    (lambda seq: detect_stationarity(seq, min_repeats=0),
     errors.SequenceTooShort, "max_block and min_repeats must be >= 1"),
    (lambda seq: simplicity_check(MatrixSequence((), ()), 3),
     errors.SequenceTooShort, "empty sequence"),
    (lambda seq: simplicity_check(seq, 0), errors.SequenceTooShort,
     "window must be >= 1"),
    # a negative count once gave an empty sequence
    (lambda seq: induce(golden_spec(), -2), errors.DomainError,
     "induction steps must be nonnegative"),
    # an empty diagram once raised a bare IndexError from level_sizes
    (lambda seq: to_bratteli(induce(golden_spec(), 0)),
     errors.SequenceTooShort, "empty sequence"),
], ids=["max-block-0", "min-repeats-0", "simplicity-empty",
        "simplicity-window-0", "induce-negative", "bratteli-empty"])
def test_stationarity_and_simplicity_refusals(call, error, message):
    with pytest.raises(error) as exc_info:
        call(induce(golden_spec(), 10))
    assert str(exc_info.value) == message


def _stationarity_reference(ms, max_block, min_repeats):
    """Smallest L, then earliest s, with min_repeats equal consecutive
    block products; then the full run of equal blocks from s."""
    def block(s, length):
        return intmat.product(ms[s:s + length])
    for length in range(1, max_block + 1):
        for s in range(len(ms) - min_repeats * length + 1):
            p = block(s, length)
            if all(block(s + k * length, length) == p
                   for k in range(1, min_repeats)):
                run = min_repeats
                while (s + (run + 1) * length <= len(ms)
                       and block(s + run * length, length) == p):
                    run += 1
                return s, length, p, run
    return None


def test_stationarity_and_simplicity_match_brute_force_definitions():
    rng = random.Random(8)
    for _ in range(400):
        n = rng.choice((2, 3))
        pool = [intmat.elementary(n, i, j)
                for i in range(n) for j in range(n) if i != j]
        pre = [rng.choice(pool) for _ in range(rng.choice((0, 0, 3, 7)))]
        if rng.random() < 0.7:
            period = [rng.choice(pool) for _ in range(rng.randint(1, 6))]
            body = period * rng.randint(1, 8)
        else:
            body = [rng.choice(pool) for _ in range(rng.randint(1, 40))]
        ms = tuple(pre + body)
        seq = MatrixSequence(ms, ("?",) * len(ms))
        min_repeats = rng.randint(1, 5)
        max_block = rng.randint(1, max(1, len(ms) // min_repeats) + 4)
        if len(ms) < min_repeats:
            with pytest.raises(errors.SequenceTooShort):
                detect_stationarity(seq, max_block, min_repeats)
        else:
            w = detect_stationarity(seq, max_block, min_repeats)
            got = w and (w.start, w.block_length, w.block_product,
                         w.repetitions_verified)
            assert got == _stationarity_reference(ms, max_block, min_repeats)
        window = rng.randint(0, 8)
        if window == 0:
            with pytest.raises(errors.SequenceTooShort):
                simplicity_check(seq, window)
            continue
        assert simplicity_check(seq, window) == any(
            intmat.is_strictly_positive(intmat.product(ms[s:s + w]))
            for w in range(1, window + 1) for s in range(len(ms) - w + 1))


def test_factor_zero_one_elementary_case():
    fs = factor_zero_one(((2, 1), (1, 1)))
    assert all(intmat.is_zero_one(f) for f in fs)
    assert intmat.product(fs) == ((2, 1), (1, 1))


def test_factor_zero_one_rejects_zero_line():
    with pytest.raises(errors.ZeroLine):
        factor_zero_one(((1, 0), (0, 0)))


def test_signed_matrices_are_refused_at_once():
    # factor_zero_one's factors once grew until MemoryError, so the calls
    # run in a child under a 1 GiB address-space cap (`ulimit -v`)
    code = textwrap.dedent("""
        import resource, time
        resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))
        from ietlab.induction import (MatrixSequence, factor_zero_one,
                                      to_bratteli)
        signed = ((2, -1), (1, 1))
        for call in (lambda: factor_zero_one(((-1,),)),
                     lambda: factor_zero_one(signed),
                     lambda: to_bratteli(MatrixSequence(
                         (((1, 1), (0, 1)), signed), ("x", "x")))):
            start = time.perf_counter()
            try:
                call()
            except ValueError as exc:
                print(exc, time.perf_counter() - start < 1)
    """)
    src = str(Path(__file__).parent.parent / "src")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert (proc.returncode, proc.stdout) == (
        0, "negative entry in nonnegative matrix True\n" * 3), proc.stderr


@settings(max_examples=60)
@given(st.integers(2, 4), st.data())
def test_factor_zero_one_roundtrip(n, data):
    rows = data.draw(st.lists(
        st.lists(st.integers(0, 9), min_size=n, max_size=n),
        min_size=n, max_size=n))
    m = tuple(tuple(r) for r in rows)
    try:
        intmat.check_no_zero_line(m)
    except errors.ZeroLine:
        return
    fs = factor_zero_one(m)
    assert all(intmat.is_zero_one(f) for f in fs)
    assert intmat.product(fs) == m


def test_to_bratteli_levels_and_dot():
    seq = induce(golden_spec(), 4)
    diagram = to_bratteli(seq)
    assert isinstance(diagram, BratteliDiagram)
    assert diagram.block_products() == seq.matrices
    assert diagram.level_sizes[0] == 2
    dot = diagram.to_dot()
    assert dot.startswith("digraph") and "->" in dot
