import itertools
import math
import random

import pytest
from hypothesis import given, strategies as st

from ietlab import errors
from ietlab.iet import validate
from ietlab.numbers import golden_alpha
from ietlab.symbolic import (ForbiddenPairs, Ray, block_complexity,
                             block_stats, code_orbit, covering_index,
                             is_admissible, path_distance,
                             surface_parameters, transitivity_index,
                             uniform_distribution_test, uniformity_ratio)


def golden_ray(steps=2000):
    a = float(golden_alpha())
    spec = validate((1 - a, a), (2, 1), mode="float")
    return code_orbit(spec, 0.1, steps)


def test_code_orbit_symbols_match_partition():
    ray = golden_ray(100)
    assert len(ray) == 101
    assert set(ray.symbols) == {1, 2}


def test_path_distance_basic():
    x = Ray((1, 2, 1, 1))
    y = Ray((1, 2, 2, 1))
    assert path_distance(x, y) == 0.25
    assert path_distance(x, Ray((2,))) == 1.0
    # agreement over the whole common prefix: 0.0 is only a lower bound
    assert path_distance(x, Ray((1, 2))) == 0.0
    assert path_distance(x, x) == 0.0


# equal lengths: on truncated rays 0.0 only means "agree so far", and the
# ultrametric inequality is claimed for genuine infinite-path prefixes
@given(st.lists(st.integers(1, 2), min_size=12, max_size=12),
       st.lists(st.integers(1, 2), min_size=12, max_size=12),
       st.lists(st.integers(1, 2), min_size=12, max_size=12))
def test_path_distance_ultrametric(a, b, c):
    x, y, z = Ray(tuple(a)), Ray(tuple(b)), Ray(tuple(c))
    assert path_distance(x, z) <= max(path_distance(x, y),
                                      path_distance(y, z))


def test_is_admissible():
    forbidden = ForbiddenPairs(frozenset({(1, 1)}))
    assert is_admissible((1, 2, 1, 2), forbidden)
    assert not is_admissible((2, 1, 1), forbidden)
    assert is_admissible((1,), forbidden)


def test_block_complexity_sturmian():
    ray = golden_ray()
    for n in range(1, 9):
        assert block_complexity(ray, n) == n + 1


def test_block_complexity_needs_prefix():
    with pytest.raises(errors.PrefixTooShort):
        block_complexity(Ray((1, 2)), 5)
    with pytest.raises(errors.PrefixTooShort):
        uniformity_ratio(Ray((1, 2)), 5)


def test_transitivity_and_covering_indices():
    ray = Ray((1, 2, 1, 2, 1, 2))
    assert transitivity_index(ray, 2) == 3
    assert covering_index(ray, 2) == 3
    # indices respect theta >= p + N - 1
    p = block_complexity(ray, 2)
    assert covering_index(ray, 2) >= p + 1


def _brute_force_indices(symbols, n):
    """p(n), phi(n) and theta(n) straight from their definitions."""
    def factors(s):
        return {s[i:i + n] for i in range(len(s) - n + 1)}
    wanted = factors(symbols)
    phi = next(length for length in range(n, len(symbols) + 1)
               if factors(symbols[:length]) == wanted)
    theta = min(j - i for i in range(len(symbols))
                for j in range(i + n, len(symbols) + 1)
                if factors(symbols[i:j]) == wanted)
    return len(wanted), phi, theta


def test_indices_match_brute_force_definitions():
    rng = random.Random(2024)
    for _ in range(150):
        # negative and gapped int symbols must code without collision
        alphabet = rng.sample(range(-6, 7), rng.randint(1, 4))
        symbols = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 30)))
        ray = Ray(symbols)
        for n in range(1, len(ray) + 1):
            want = _brute_force_indices(symbols, n)
            assert (block_complexity(ray, n), transitivity_index(ray, n),
                    covering_index(ray, n)) == want
            s = block_stats(ray, n)
            assert (s.distinct_blocks, s.transitivity, s.covering) == want


def _reference_indices(symbols, n):
    """p(n), phi(n) and theta(n) by a forward pass over rolling factor codes,
    the first occurrences in insertion order and a two-pointer window."""
    rank = {s: i for i, s in enumerate(sorted(set(symbols)))}
    k, code, codes = len(rank), 0, []
    for s in symbols[:n - 1]:
        code = code * k + rank[s]
    for s in symbols[n - 1:]:
        code = code % k ** (n - 1) * k + rank[s]
        codes.append(code)
    firsts = dict.fromkeys(codes)
    phi = codes.index(next(reversed(firsts))) + n
    counts, missing = dict.fromkeys(codes, 0), len(firsts)
    best, lo = len(codes), 0
    for hi, c in enumerate(codes):
        missing -= counts[c] == 0
        counts[c] += 1
        while counts[codes[lo]] > 1:
            counts[codes[lo]] -= 1
            lo += 1
        if not missing:
            best = min(best, hi - lo + 1)
    return len(firsts), phi, best + n - 1


# (pi, lengths) of the float golden rotation and of two self-similar
# oriented 4-IETs, whose lengths are the Perron eigenvector of the positive
# product along the closed Rauzy walks bttbttbbbbtbbbtbtbtb and
# ttbbtttbttbbbbtttbbtbtbt from pi (t: the top letter wins), so the coding
# of an exchange of d intervals has complexity p(N) = (d - 1)N + 1.
BENCHMARK_SPECS = [
    ((2, 1), (1 - float(golden_alpha()), float(golden_alpha()))),
    ((4, 2, 1, 3), (0.23407586631951982, 0.1926331777317631,
                    0.35232997002226096, 0.22096098592645608)),
    ((2, 3, 4, 1), (0.1702202183129707, 0.2650661090062065,
                    0.13211440039072422, 0.43259927229009865)),
]


@pytest.mark.parametrize("pi, lengths", BENCHMARK_SPECS,
                         ids=["golden", "4iet-0", "4iet-1"])
def test_block_stats_at_benchmark_size(pi, lengths):
    ray = code_orbit(validate(lengths, pi, mode="float"), 0.1, 10 ** 4)
    for n in range(1, 9):
        s = block_stats(ray, n)
        got = (s.distinct_blocks, s.transitivity, s.covering)
        assert got == _reference_indices(ray.symbols, n)
        assert s.distinct_blocks == (len(pi) - 1) * n + 1


def test_index_memo_never_returns_a_stale_result():
    rays = [golden_ray(200), Ray((3, 1, 1, 2, 3, 3, 1, 2) * 20 + (2, 2))]
    cases = [(ray, n) for ray in rays for n in (2, 5)]
    want = [_reference_indices(ray.symbols, n) for ray, n in cases]
    assert len(set(want)) == 4
    for order in itertools.permutations(range(4)):
        for c in order:
            s = block_stats(*cases[c])
            assert (s.distinct_blocks, s.transitivity, s.covering) == want[c]
    # each index function called on every case after every other case
    indices = (block_complexity, transitivity_index, covering_index)
    for seq in itertools.product(range(4), repeat=3):
        for field, (c, index) in enumerate(zip(seq, indices)):
            assert index(*cases[c]) == want[c][field]


def test_index_memo_takes_list_symbols_and_still_raises():
    symbols = golden_ray(300).symbols
    twin = Ray(list(symbols))
    for n in (1, 4, 4, 7):
        want = block_stats(Ray(symbols), n)
        assert block_stats(twin, n) == want
        assert block_stats(Ray(symbols), n) == want
    for n in (0, 0, len(symbols) + 1, len(symbols) + 1):
        for ray in (Ray(symbols), twin):
            with pytest.raises(errors.PrefixTooShort):
                block_stats(ray, n)
            assert block_complexity(ray, 3) == 4


def test_index_ordering_on_golden():
    ray = golden_ray()
    for n in range(1, 9):
        p = block_complexity(ray, n)
        phi = transitivity_index(ray, n)
        theta = covering_index(ray, n)
        assert phi >= theta >= p + n - 1


def test_uniform_distribution_test():
    # constant ray: phi(1) = 1 = p(1) * 1
    assert uniform_distribution_test(Ray((1,) * 10), 1)
    # 1,1,2 repeated: phi(1) = 3 > p(1) * 1 = 2
    assert not uniform_distribution_test(Ray((1, 1, 2) * 5), 1)


def test_uniformity_ratio_bounded_by_one_from_below():
    ray = golden_ray(500)
    for r in uniformity_ratio(ray, 6):
        assert r >= 1.0


def test_block_stats_fields():
    s = block_stats(golden_ray(300), 3)
    assert s.N == 3
    assert s.distinct_blocks == 4
    assert s.transitivity >= s.covering


def test_surface_parameters():
    assert surface_parameters(2) == [(1, 1)]
    assert surface_parameters(4) == [(1, 3), (2, 1)]
    assert surface_parameters(5) == [(1, 4), (2, 2)]
    with pytest.raises(ValueError):
        surface_parameters(1)


def test_surface_parameters_satisfy_relation():
    for n in range(2, 12):
        for g, m in surface_parameters(n):
            assert 2 * g + m - 1 == n
            assert 2 - 2 * g - m < 0
