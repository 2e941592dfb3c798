import random

import pytest
from hypothesis import given, settings, strategies as st

from ietlab import intmat
from ietlab.dimension_group import simplex_diameters, state_simplex
from ietlab.induction import MatrixSequence, detect_stationarity, telescope


def dense(a, b):
    """Reference product: every entry as a sum over the inner index."""
    return tuple(tuple(sum(a[r][k] * b[k][c] for k in range(len(b)))
                       for c in range(len(b[0]))) for r in range(len(a)))


def pairs(n):
    return [(i, j) for i in range(n) for j in range(n) if i != j]


@st.composite
def left_and_index(draw):
    n = draw(st.integers(2, 5))
    rows = draw(st.integers(1, 6))
    a = tuple(tuple(draw(st.lists(st.integers(0, 2 ** 70), min_size=n,
                                  max_size=n))) for _ in range(rows))
    return a, n, draw(st.sampled_from(pairs(n)))


@settings(max_examples=200)
@given(left_and_index())
def test_elementary_right_factor_matches_dense(case):
    a, n, (i, j) = case
    e = intmat.elementary(n, i, j)
    assert e is intmat.elementary(n, i, j)
    copy = tuple(tuple(r) for r in e)
    assert copy == e and copy is not e
    t = intmat.elementary(n, j, i)
    assert t == tuple(zip(*e))
    for b in (e, copy, t, tuple(zip(*copy))):
        assert intmat.mat_mul(a, b) == dense(a, b)
    # with both factors registered, the row add gives the product
    assert intmat.mat_mul(e, t) == dense(e, t)


@settings(max_examples=100)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.data())
def test_non_elementary_right_factor_matches_dense(rows, inner, cols, data):
    def matrix(r, c):
        return tuple(tuple(data.draw(st.lists(st.integers(-9, 9), min_size=c,
                                              max_size=c))) for _ in range(r))
    a, b = matrix(rows, inner), matrix(inner, cols)
    assert intmat.mat_mul(a, b) == dense(a, b)


@settings(max_examples=200)
@given(st.integers(2, 5), st.data())
def test_elementary_left_factor_matches_dense(n, data):
    """M times B for M = I + E_ij, its copy, elementary(n, j, i) and a dense
    M (square or not), equal to the reference product; a registered
    I + E_ij on the left rebuilds row i of B alone."""
    def matrix(rows, cols, hi):
        return tuple(tuple(data.draw(st.lists(st.integers(0, hi), min_size=cols,
                                              max_size=cols)))
                     for _ in range(rows))
    b = matrix(n, data.draw(st.integers(1, 6)), 2 ** 70)
    i, j = data.draw(st.sampled_from(pairs(n)))
    e = intmat.elementary(n, i, j)
    wide = matrix(data.draw(st.integers(1, 5)), n, 9)
    for m in (e, tuple(tuple(r) for r in e), intmat.elementary(n, j, i),
              matrix(n, n, 9), wide):
        assert intmat.mat_mul(m, b) == dense(m, b)
    out = intmat.mat_mul(e, b)
    assert all(out[r] is b[r] for r in range(n) if r != i)


def test_sequence_functions_agree_with_dense_products():
    """Each result is the same whether its factors are the registered
    elementary matrices (one column add per product) or equal copies of them
    (dense products)."""
    rng = random.Random(11)
    for _ in range(40):
        n = rng.choice((2, 3, 4))
        pool = [intmat.elementary(n, i, j) for i, j in pairs(n)]
        body = [rng.choice(pool) for _ in range(rng.randint(1, 5))]
        ms = tuple(body * rng.randint(3, 6) + [rng.choice(pool)
                                               for _ in range(rng.randint(0, 9))])
        copies = tuple(tuple(tuple(r) for r in m) for m in ms)
        fast = MatrixSequence(ms, ("?",) * len(ms))
        slow = MatrixSequence(copies, ("?",) * len(ms))
        assert (detect_stationarity(fast, 8, 2)
                == detect_stationarity(slow, 8, 2))
        cuts = sorted(rng.sample(range(1, len(ms) + 1),
                                 rng.randint(1, min(4, len(ms)))))
        assert telescope(fast, cuts) == telescope(slow, cuts)
        for k in {1, len(ms) // 2, len(ms)} - {0}:
            assert state_simplex(fast, k) == state_simplex(slow, k)
        assert simplex_diameters(fast) == simplex_diameters(slow)


@pytest.mark.parametrize("call, message", [
    (lambda: intmat.mat_mul(((1, 2),), ((1, 2),)), "dimension mismatch"),
    (lambda: intmat.mat_vec(((1, 2),), (1,)), "dimension mismatch"),
    (lambda: intmat.mat_mul(intmat.elementary(3, 0, 1), ((1, 0), (0, 1))),
     "dimension mismatch"),
    (lambda: intmat.mat_mul(intmat.elementary(2, 0, 1),
                            ((1, 0), (0, 1), (1, 1))),
     "dimension mismatch"),
    (lambda: intmat.product([]), "empty product"),
    (lambda: intmat.check_nonnegative(((1, 0), (0, -1))),
     "negative entry in nonnegative matrix"),
    (lambda: intmat.check_no_zero_line(((1, 0), (0, -1))),
     "negative entry in nonnegative matrix"),
], ids=["mat-mul", "mat-vec", "elementary-left-short",
        "elementary-left-long", "empty-product", "negative", "negative-line"])
def test_intmat_refusals(call, message):
    with pytest.raises(ValueError) as exc_info:
        call()
    assert str(exc_info.value) == message
