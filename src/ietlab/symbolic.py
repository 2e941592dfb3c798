"""Symbolic coding of orbits, the path-space metric and the Morse-Hedlund
transitivity/covering indices.

Rays are finite prefixes of itineraries through the interval partition.
"Admissible" blocks are taken relative to the observed language of the
analyzed prefix: all indices here are prefix-relative surrogates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import PrefixTooShort
from .iet import IETSpec, orbit


@dataclass(frozen=True)
class Ray:
    symbols: tuple[int, ...]

    def __len__(self):
        return len(self.symbols)


@dataclass(frozen=True)
class ForbiddenPairs:
    pairs: frozenset[tuple[int, int]]


@dataclass(frozen=True)
class BlockStats:
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


def _codes(symbols: Sequence[int], n: int) -> list[int]:
    """Integer code of every length-n factor, in order of position.

    The alphabet is ranked first, so the code of a factor is its base-k
    numeral (k the number of distinct symbols) and two factors share a code
    iff they are equal, whatever ints the symbols are.
    """
    if n < 1 or len(symbols) < n:
        raise PrefixTooShort(f"need a prefix of length >= {n}")
    rank = {s: i for i, s in enumerate(sorted(set(symbols)))}
    k = len(rank)
    top = k ** (n - 1)
    code = 0
    for s in symbols[:n - 1]:
        code = code * k + rank[s]
    codes = []
    for s in symbols[n - 1:]:
        code = code % top * k + rank[s]   # drop the oldest digit, add s
        codes.append(code)
    return codes


def block_complexity(ray: Ray, n: int) -> int:
    """Number of distinct length-n factors of the prefix, p(n)."""
    return len(set(_codes(ray.symbols, n)))


def transitivity_index(ray: Ray, n: int) -> int:
    """Length of the shortest initial segment containing every observed
    length-n factor of the prefix."""
    codes = _codes(ray.symbols, n)
    # dict keys keep insertion order, so the last key is the factor whose
    # first occurrence comes last
    newest = next(reversed(dict.fromkeys(codes)))
    return codes.index(newest) + n


def covering_index(ray: Ray, n: int) -> int:
    """Length of the shortest window anywhere in the prefix containing every
    observed length-n factor."""
    codes = _codes(ray.symbols, n)
    counts = dict.fromkeys(codes, 0)
    missing = len(counts)
    best = len(codes)
    lo = 0
    for hi, c in enumerate(codes):
        if counts[c] == 0:
            missing -= 1
        counts[c] += 1
        # shrink from the left while the first factor recurs in the window
        while counts[codes[lo]] > 1:
            counts[codes[lo]] -= 1
            lo += 1
        if not missing and hi - lo + 1 < best:
            best = hi - lo + 1
    return best + n - 1


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
    negative Euler characteristic."""
    if n < 2:
        raise ValueError("need n >= 2")
    out = []
    for g in range(1, n // 2 + 1):
        m = n + 1 - 2 * g
        if m >= 1 and 2 - 2 * g - m < 0:
            out.append((g, m))
    return out
