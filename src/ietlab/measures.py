"""Empirical invariant measures: Birkhoff averages, orbit histograms and a
census of distinct measures seen from many starting points.

Each histogram is counted by `iet.count_returns`, through the
first-return tower over a short window on its orbit, so an N-step orbit
costs about N/50 returns, rounding once per float return: a histogram
equals the orbit's counts in exact mode and on edges away from orbit
points.  `birkhoff_average` counts the iterates of `iet.orbit` bit for bit.
The starts of one census hand `count_returns` one list of towers, which
lives for one `estimate_ergodic_count` call, in `_CENSUS`; `count_returns`
decides which starts share a tower.

The census is an estimate, not a certification: empirical measures from
N-step orbits are clustered by L1 distance and the cluster count is compared
against the closed-form bounds on the number of ergodic invariant measures.
When the dynamics is visibly non-minimal (two starts exploring disjoint
regions) the bound comparison is reported informationally only, since the
bounds concern minimal transformations.
"""

from __future__ import annotations

from collections import Counter
from contextvars import ContextVar
from typing import NamedTuple, Optional, Sequence

from .dimension_group import measure_bounds
from .errors import DomainError
from .iet import IETSpec, count_returns, count_visits

DEFAULT_BINS = 64
DEFAULT_CLUSTER_TOL = 0.05
_COARSE_BINS = 8
_MIN_BIN_WIDTH = 1e-6   # narrower bins may go unvisited by a minimal map
_MASS_EPS = 1e-9        # a bin with at most this mass is empty
# the towers of the census running in this context, if any
_CENSUS = ContextVar("census", default=None)


class EmpiricalMeasure(NamedTuple):
    bin_edges: tuple[float, ...]
    masses: tuple[float, ...]
    start: float
    iterates: int


class MeasureCensus(NamedTuple):
    clusters: tuple[tuple[EmpiricalMeasure, int], ...]
    estimated_count: int
    bound: int
    bound_respected: Optional[bool]   # None when the bound check is informational
    non_minimal_flag: bool


def birkhoff_average(spec: IETSpec, x0, target_interval, n_steps: int) -> float:
    """Time average of the indicator of [lo, hi) over the first n_steps
    iterates of x0, with lo and hi compared in the spec's arithmetic."""
    lo, hi = target_interval
    if not (0 <= lo < hi <= 1):
        raise DomainError(f"target interval [{lo}, {hi}) not inside [0, 1]")
    if n_steps < 1:
        raise DomainError("need at least one iterate")
    return count_visits(spec, x0, n_steps, lo, hi) / n_steps


def _bin_edges(spec: IETSpec, bins: int) -> list:
    """Uniform grid refined by the discontinuity points beta_i, in the
    spec's arithmetic (its right endpoint beta_n is 1 or 1.0)."""
    one = spec.beta[-1]
    grid = {one * i / bins for i in range(bins + 1)}
    grid.update(spec.beta)
    return sorted(grid)


def empirical_measure(spec: IETSpec, x0, n_steps: int,
                      bins: int = DEFAULT_BINS) -> EmpiricalMeasure:
    """Normalized orbit histogram over a partition refining v_1..v_n."""
    if bins < spec.n:
        raise DomainError(f"need at least {spec.n} bins")
    if n_steps < 1:
        raise DomainError("need at least one iterate")
    edges = _bin_edges(spec, bins)
    towers = _CENSUS.get()
    counts = count_returns(spec, x0, n_steps, edges,
                           [] if towers is None else towers)
    masses = tuple(c / n_steps for c in counts)
    return EmpiricalMeasure(tuple(map(float, edges)), masses, float(x0),
                            n_steps)


def _l1(a: EmpiricalMeasure, b: EmpiricalMeasure) -> float:
    return sum(abs(x - y) for x, y in zip(a.masses, b.masses))


def _misses_a_bin(m: EmpiricalMeasure) -> bool:
    """True when the orbit never visited some bin of non-negligible width.

    Minimal transformations have dense orbits, so after enough iterates every
    bin is hit; an untouched bin is the signature of a periodic component or
    an invariant subregion.
    """
    return any(mass == 0 and hi - lo > _MIN_BIN_WIDTH
               for lo, hi, mass in zip(m.bin_edges, m.bin_edges[1:],
                                       m.masses))


def _coarse_support(m: EmpiricalMeasure) -> frozenset:
    """Indices of coarse uniform cells carrying mass."""
    occupied = set()
    for (lo, hi), mass in zip(zip(m.bin_edges, m.bin_edges[1:]), m.masses):
        if mass > _MASS_EPS:
            mid = (lo + hi) / 2
            occupied.add(min(int(mid * _COARSE_BINS), _COARSE_BINS - 1))
    return frozenset(occupied)


def estimate_ergodic_count(spec: IETSpec, starts: Sequence, n_steps: int,
                           cluster_tol: float = DEFAULT_CLUSTER_TOL,
                           bins: int = DEFAULT_BINS) -> MeasureCensus:
    """Cluster the empirical measures from the given starts by single-linkage
    L1 distance and compare the cluster count to the measure-count bound.

    The bound comparison is skipped (bound_respected None) when the run looks
    non-minimal: some start never visits a bin, or two starts have disjoint
    coarse supports.
    """
    if len(starts) < 2:
        raise DomainError("need at least two starting points")
    ordered = sorted(starts, key=float)   # deterministic aggregation order
    token = _CENSUS.set([])
    try:
        measures = [empirical_measure(spec, x0, n_steps, bins)
                    for x0 in ordered]
    finally:
        _CENSUS.reset(token)

    # single linkage: each measure is labelled with the smallest index in
    # its cluster, and a close pair relabels the larger label to the smaller
    label = list(range(len(measures)))
    for i in range(len(measures)):
        for j in range(i + 1, len(measures)):
            a, b = sorted((label[i], label[j]))
            if a != b and _l1(measures[i], measures[j]) <= cluster_tol:
                label = [a if x == b else x for x in label]
    clusters = tuple((measures[k], count)
                     for k, count in Counter(label).items())

    supports = [_coarse_support(m) for m in measures]
    non_minimal = (any(_misses_a_bin(m) for m in measures)
                   or any(not (supports[i] & supports[j])
                          for i in range(len(supports))
                          for j in range(i + 1, len(supports))))

    bound = measure_bounds(spec.n, not spec.oriented) if spec.n >= 2 else 1
    respected = None if non_minimal else len(clusters) <= bound
    return MeasureCensus(clusters, len(clusters), bound, respected,
                         non_minimal)
