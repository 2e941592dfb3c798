"""Symbolic coding of orbits, the path-space metric and the Morse-Hedlund
transitivity/covering indices.

Rays are finite prefixes of itineraries through the interval partition.
"Admissible" blocks are taken relative to the observed language of the
analyzed prefix: all indices here are prefix-relative surrogates.
p(N), phi(N) and theta(N) of one prefix come from one pass, and the last
(prefix, N) is memoised, so asking for all three codes the prefix once.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Sequence

from .errors import PrefixTooShort
from .iet import IETSpec, orbit


class Ray(NamedTuple):
    symbols: tuple[int, ...]

    def __len__(self):   # the number of symbols
        return len(self.symbols)


class ForbiddenPairs(NamedTuple):
    pairs: frozenset[tuple[int, int]]


class BlockStats(NamedTuple):
    N: int
    distinct_blocks: int
    transitivity: int
    covering: int


def code_orbit(spec: IETSpec, x0, n_steps: int) -> Ray:
    """Itinerary of the forward orbit through the partition v_1..v_n."""
    return Ray(orbit(spec, x0, n_steps).interval_indices)


def path_distance(x: Ray, y: Ray) -> float:
    """1 / 2^k with k the longest common prefix length.

    Returns 0.0 when the rays agree on the whole available common prefix;
    that value is only a lower bound, since longer prefixes might differ.
    """
    limit = min(len(x), len(y))
    k = 0
    while k < limit and x.symbols[k] == y.symbols[k]:
        k += 1
    if k == limit:
        return 0.0
    return 0.5 ** k


def is_admissible(block: Sequence[int], forbidden: ForbiddenPairs) -> bool:
    """True iff no adjacent ordered pair of the block is forbidden."""
    return all((a, b) not in forbidden.pairs for a, b in zip(block, block[1:]))


@lru_cache(maxsize=1)
def _indices(symbols: tuple[int, ...], n: int) -> tuple[int, int, int]:
    """p(n), phi(n) and theta(n) from one backward pass over the factors.

    The alphabet is ranked first, so the code of a factor is its base-k
    numeral (k the number of distinct symbols) and two factors share a code
    iff they are equal, whatever ints the symbols are.  Walking the starts
    from the end, `first` ends with each factor's first start and `nxt[i]`
    is the next start of the factor at i (m if none).
    """
    m = len(symbols) - n + 1
    if n < 1 or m < 1:
        raise PrefixTooShort(f"need a prefix of length >= {n}")
    rank = {s: i for i, s in enumerate(sorted(set(symbols)))}
    k = len(rank)
    top = k ** (n - 1)
    code = 0
    for s in reversed(symbols[m:]):    # seed with the last n - 1 symbols
        code = code // k + rank[s] * top
    first, nxt = {}, [m] * m
    for i in range(m - 1, -1, -1):
        code = code // k + rank[symbols[i]] * top  # drop a digit, prepend s_i
        nxt[i] = first.get(code, m)
        first[code] = i
    # the shortest window of starts from lo ends at hi(lo), which only
    # grows: hi(lo + 1) = max(hi(lo), nxt[lo]); the best window of a run
    # of equal hi is its last
    hi = best = newest = max(first.values())
    for lo, j in enumerate(nxt):
        if j > hi:
            best = min(best, hi - lo)
            if j == m:
                break
            hi = j
    return len(first), newest + n, best + n


def block_complexity(ray: Ray, n: int) -> int:
    """Number of distinct length-n factors of the prefix, p(n)."""
    return _indices(tuple(ray.symbols), n)[0]


def transitivity_index(ray: Ray, n: int) -> int:
    """Length of the shortest initial segment containing every observed
    length-n factor of the prefix, phi(n)."""
    return _indices(tuple(ray.symbols), n)[1]


def covering_index(ray: Ray, n: int) -> int:
    """Length of the shortest window anywhere in the prefix containing every
    observed length-n factor, theta(n)."""
    return _indices(tuple(ray.symbols), n)[2]


def uniformity_ratio(ray: Ray, n_max: int) -> list[float]:
    """Ratios phi(N)/theta(N) for N = 1..n_max."""
    if len(ray) < n_max:
        raise PrefixTooShort(f"need a prefix of length >= {n_max}")
    return [transitivity_index(ray, n) / covering_index(ray, n)
            for n in range(1, n_max + 1)]


def uniform_distribution_test(ray: Ray, n: int) -> bool:
    """True iff phi(N) equals k*N with k the number of observed blocks."""
    return transitivity_index(ray, n) == block_complexity(ray, n) * n


def block_stats(ray: Ray, n: int) -> BlockStats:
    return BlockStats(n, block_complexity(ray, n), transitivity_index(ray, n),
                      covering_index(ray, n))


def surface_parameters(n: int) -> list[tuple[int, int]]:
    """All (genus, boundary components) with 2g + m - 1 = n, g, m >= 1 and
    negative Euler characteristic: g <= n/2 gives m >= 1, and the Euler
    characteristic 2 - 2g - m is 1 - n < 0 for every one."""
    if n < 2:
        raise ValueError("need n >= 2")
    return [(g, n + 1 - 2 * g) for g in range(1, n // 2 + 1)]
